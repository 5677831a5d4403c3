package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// vlsiCatalog builds the four-level cell hierarchy of the paper's Fig. 2:
// chip ⊃ module ⊃ block ⊃ stdcell.
func vlsiCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	register := func(d *DOT) {
		t.Helper()
		if err := c.Register(d); err != nil {
			t.Fatalf("Register %s: %v", d.Name, err)
		}
	}
	register(&DOT{
		Name: "stdcell",
		Attrs: []AttrDef{
			{Name: "name", Kind: KindString, Required: true},
			{Name: "area", Kind: KindFloat, Bounded: true, Min: 0, Max: 1e9},
		},
	})
	register(&DOT{
		Name:       "block",
		Attrs:      []AttrDef{{Name: "name", Kind: KindString, Required: true}},
		Components: []ComponentDef{{Name: "cells", DOT: "stdcell", MinCard: 0}},
	})
	register(&DOT{
		Name:       "module",
		Attrs:      []AttrDef{{Name: "name", Kind: KindString, Required: true}},
		Components: []ComponentDef{{Name: "blocks", DOT: "block", MinCard: 0}},
	})
	register(&DOT{
		Name:       "chip",
		Attrs:      []AttrDef{{Name: "name", Kind: KindString, Required: true}},
		Components: []ComponentDef{{Name: "modules", DOT: "module", MinCard: 0, MaxCard: 16}},
	})
	return c
}

func TestRegisterRejectsBadSchemas(t *testing.T) {
	cases := []struct {
		name string
		dot  *DOT
		want string
	}{
		{"empty name", &DOT{}, "needs a name"},
		{"dup attr", &DOT{Name: "x", Attrs: []AttrDef{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}}, "duplicate attribute"},
		{"bad kind", &DOT{Name: "x", Attrs: []AttrDef{{Name: "a", Kind: 99}}}, "invalid kind"},
		{"min>max", &DOT{Name: "x", Attrs: []AttrDef{{Name: "a", Kind: KindInt, Bounded: true, Min: 2, Max: 1}}}, "Min > Max"},
		{"dup comp", &DOT{Name: "x", Components: []ComponentDef{{Name: "c", DOT: "y"}, {Name: "c", DOT: "y"}}}, "duplicate component"},
		{"bad card", &DOT{Name: "x", Components: []ComponentDef{{Name: "c", DOT: "y", MinCard: 3, MaxCard: 1}}}, "invalid cardinality"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := New().Register(tc.dot)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Register = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestRegisterDuplicateDOT(t *testing.T) {
	c := New()
	if err := c.Register(&DOT{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	err := c.Register(&DOT{Name: "a"})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register = %v, want ErrDuplicate", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := New().Lookup("nope"); !errors.Is(err, ErrUnknownDOT) {
		t.Fatalf("Lookup = %v, want ErrUnknownDOT", err)
	}
}

func TestIsPartOfHierarchy(t *testing.T) {
	c := vlsiCatalog(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"chip", "chip", true},
		{"module", "chip", true},
		{"block", "chip", true},
		{"stdcell", "chip", true},
		{"stdcell", "module", true},
		{"chip", "module", false},
		{"module", "block", false},
		{"block", "stdcell", false},
	}
	for _, tc := range cases {
		got, err := c.IsPartOf(tc.sub, tc.super)
		if err != nil {
			t.Fatalf("IsPartOf(%s, %s): %v", tc.sub, tc.super, err)
		}
		if got != tc.want {
			t.Errorf("IsPartOf(%s, %s) = %t, want %t", tc.sub, tc.super, got, tc.want)
		}
	}
	if _, err := c.IsPartOf("ghost", "chip"); !errors.Is(err, ErrUnknownDOT) {
		t.Errorf("IsPartOf unknown sub = %v, want ErrUnknownDOT", err)
	}
}

func TestIsPartOfCyclicSchemas(t *testing.T) {
	c := New()
	// a and b contain each other: IsPartOf must terminate and find both.
	if err := c.Register(&DOT{Name: "a", Components: []ComponentDef{{Name: "bs", DOT: "b"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(&DOT{Name: "b", Components: []ComponentDef{{Name: "as", DOT: "a"}}}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		ok, err := c.IsPartOf(pair[0], pair[1])
		if err != nil || !ok {
			t.Fatalf("IsPartOf(%s, %s) = %t, %v", pair[0], pair[1], ok, err)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	c := vlsiCatalog(t)
	chip := NewObject("chip").Set("name", Str("cpu"))
	mod := NewObject("module").Set("name", Str("alu"))
	blk := NewObject("block").Set("name", Str("rom"))
	cell := NewObject("stdcell").Set("name", Str("mux")).Set("area", Float(4.5))
	blk.AddPart("cells", cell)
	mod.AddPart("blocks", blk)
	chip.AddPart("modules", mod)
	if err := c.Validate(chip); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	c := vlsiCatalog(t)
	cases := []struct {
		name string
		obj  *Object
		want string
	}{
		{"unknown type", NewObject("ghost"), "unknown design object type"},
		{"missing required", NewObject("chip"), "missing required"},
		{"undeclared attr", NewObject("chip").Set("name", Str("x")).Set("ghost", Int(1)), "undeclared attribute"},
		{"wrong kind", NewObject("chip").Set("name", Int(5)), "kind int, want string"},
		{"out of bounds", NewObject("stdcell").Set("name", Str("c")).Set("area", Float(-2)), "outside"},
		{"undeclared slot", NewObject("chip").Set("name", Str("x")).AddPart("ghosts", NewObject("module").Set("name", Str("m"))), "undeclared component slot"},
		{"wrong part type", NewObject("chip").Set("name", Str("x")).AddPart("modules", NewObject("block").Set("name", Str("b"))), "part of type block, want module"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.Validate(tc.obj)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateCardinality(t *testing.T) {
	c := New()
	if err := c.Register(&DOT{Name: "leaf"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(&DOT{Name: "root", Components: []ComponentDef{{Name: "kids", DOT: "leaf", MinCard: 1, MaxCard: 2}}}); err != nil {
		t.Fatal(err)
	}
	o := NewObject("root")
	if err := c.Validate(o); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Fatalf("empty kids: %v", err)
	}
	o.AddPart("kids", NewObject("leaf"))
	if err := c.Validate(o); err != nil {
		t.Fatalf("one kid: %v", err)
	}
	o.AddPart("kids", NewObject("leaf")).AddPart("kids", NewObject("leaf"))
	if err := c.Validate(o); err == nil || !strings.Contains(err.Error(), "at most 2") {
		t.Fatalf("three kids: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	o := NewObject("chip").Set("name", Str("a"))
	o.AddPart("modules", NewObject("module").Set("name", Str("m1")))
	c := o.Clone()
	c.Set("name", Str("b"))
	c.Parts["modules"][0].Set("name", Str("changed"))
	if o.Attrs["name"].S != "a" {
		t.Error("clone mutated root attr of original")
	}
	if o.Parts["modules"][0].Attrs["name"].S != "m1" {
		t.Error("clone mutated nested part of original")
	}
}

func TestWalkVisitsAllPartsInOrder(t *testing.T) {
	o := NewObject("chip").Set("name", Str("c"))
	m1 := NewObject("module").Set("name", Str("m1"))
	m2 := NewObject("module").Set("name", Str("m2"))
	o.AddPart("modules", m1).AddPart("modules", m2)
	m1.AddPart("blocks", NewObject("block").Set("name", Str("b")))
	var names []string
	o.Walk(func(x *Object) { names = append(names, x.Attrs["name"].S) })
	want := []string{"c", "m1", "b", "m2"}
	if len(names) != len(want) {
		t.Fatalf("visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("visited %v, want %v", names, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	o := NewObject("chip").Set("name", Str("cpu")).Set("rev", Str("a0"))
	o.AddPart("modules", NewObject("module").Set("name", Str("alu")))
	data, err := EncodeObject(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "chip" || got.Attrs["name"].S != "cpu" || len(got.Parts["modules"]) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestCheckEncodedAgreesWithDecode: CheckEncoded accepts exactly what
// DecodeObject accepts — for a nested object's encoding, every truncation of
// it, and every single-byte corruption.
func TestCheckEncodedAgreesWithDecode(t *testing.T) {
	o := NewObject("chip").Set("name", Str("cpu")).Set("rev", Int(-3)).
		Set("area", Float(1.5)).Set("ok", Bool(true))
	o.AddPart("modules", NewObject("module").Set("name", Str("alu")))
	o.AddPart("modules", NewObject("module").Set("name", Str("fpu")))
	data, err := EncodeObject(o)
	if err != nil {
		t.Fatal(err)
	}
	agree := func(what string, b []byte) {
		t.Helper()
		_, derr := DecodeObject(b)
		if cerr := CheckEncoded(b); (cerr == nil) != (derr == nil) {
			t.Fatalf("%s: CheckEncoded = %v, DecodeObject = %v", what, cerr, derr)
		}
	}
	agree("whole", data)
	for n := range data {
		agree(fmt.Sprintf("truncated to %d", n), data[:n])
	}
	for i := range data {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			b := bytes.Clone(data)
			b[i] ^= x
			agree(fmt.Sprintf("byte %d ^ %#x", i, x), b)
		}
	}
}

func TestNumAttr(t *testing.T) {
	o := NewObject("x").Set("i", Int(3)).Set("f", Float(2.5)).Set("s", Str("no"))
	if got := NumAttr(o, "i"); got != 3 {
		t.Errorf("NumAttr(i) = %g", got)
	}
	if got := NumAttr(o, "f"); got != 2.5 {
		t.Errorf("NumAttr(f) = %g", got)
	}
	if got := NumAttr(o, "s"); !math.IsNaN(got) {
		t.Errorf("NumAttr(s) = %g, want NaN", got)
	}
	if got := NumAttr(o, "missing"); !math.IsNaN(got) {
		t.Errorf("NumAttr(missing) = %g, want NaN", got)
	}
	if got := NumAttr(nil, "x"); !math.IsNaN(got) {
		t.Errorf("NumAttr(nil) = %g, want NaN", got)
	}
}

// Property: encode/decode is the identity for objects built from arbitrary
// attribute values.
func TestQuickEncodeRoundTrip(t *testing.T) {
	prop := func(ints []int64, strs []string) bool {
		o := NewObject("t")
		for i, v := range ints {
			o.Set("i"+string(rune('a'+i%26)), Int(v))
		}
		for i, v := range strs {
			o.Set("s"+string(rune('a'+i%26)), Str(v))
		}
		data, err := EncodeObject(o)
		if err != nil {
			return false
		}
		got, err := DecodeObject(data)
		if err != nil || got.Type != o.Type || len(got.Attrs) != len(o.Attrs) {
			return false
		}
		for k, v := range o.Attrs {
			if !got.Attrs[k].Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: IsPartOf is reflexive and transitive on a random linear chain.
func TestQuickPartOfTransitive(t *testing.T) {
	prop := func(depth uint8) bool {
		n := int(depth%6) + 2
		c := New()
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = "t" + string(rune('a'+i))
		}
		for i := 0; i < n; i++ {
			d := &DOT{Name: names[i]}
			if i+1 < n {
				d.Components = []ComponentDef{{Name: "sub", DOT: names[i+1]}}
			}
			if err := c.Register(d); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				ok, err := c.IsPartOf(names[j], names[i])
				if err != nil || !ok {
					return false
				}
				if i != j {
					rev, err := c.IsPartOf(names[i], names[j])
					if err != nil || rev {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
