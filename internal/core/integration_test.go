package core

import (
	"testing"

	"concord/internal/coop"
	"concord/internal/feature"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// TestRecursiveDelegationPlanning drives the cmd/chipplan logic as an
// integration test: a generated hierarchy is planned top-down with one DA
// per non-leaf cell, exactly the recursive chip-planning methodology of
// Sect. 3.
func TestRecursiveDelegationPlanning(t *testing.T) {
	sys := newSystem(t, "")
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	cm := sys.CM()
	chip := vlsi.GenerateHierarchy(7, "chip", 3, 2)
	if err := cm.InitDesign(coop.Config{
		ID: "da:chip", DOT: vlsi.DOTChip,
		Spec:     feature.MustSpec(feature.Range("area-limit", "area", 0, chip.AreaEstimate*4)),
		Designer: "chief",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cm.Start("da:chip"); err != nil {
		t.Fatal(err)
	}

	var plan func(cell *vlsi.Cell, da string) int
	plan = func(cell *vlsi.Cell, da string) int {
		if len(cell.Children) == 0 {
			return 0
		}
		shapes := vlsi.ShapesForChildren(cell, 4)
		fp, err := vlsi.PlanChip(cell.Netlist, vlsi.Interface{Cell: cell.Name}, shapes)
		if err != nil {
			t.Fatalf("plan %s: %v", cell.Name, err)
		}
		dop, err := ws.Begin("", da)
		if err != nil {
			t.Fatal(err)
		}
		if err := dop.SetWorkspace(vlsi.FloorplanToObject(fp)); err != nil {
			t.Fatal(err)
		}
		id, err := dop.Checkin(version.StatusWorking, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := dop.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := cm.Evaluate(da, id); err != nil {
			t.Fatal(err)
		}
		planned := 1
		budget := map[string]float64{}
		for _, p := range fp.Placements {
			budget[p.Name] = p.Rect.Area()
		}
		for _, child := range cell.Children {
			if len(child.Children) == 0 {
				continue
			}
			sub := "da:" + child.Name
			if err := cm.CreateSubDA(da, coop.Config{
				ID: sub, DOT: vlsi.DOTCell,
				Spec:     feature.MustSpec(feature.Range("area-limit", "area", 0, budget[child.Name]*2)),
				Designer: sub,
			}); err != nil {
				t.Fatal(err)
			}
			if err := cm.Start(sub); err != nil {
				t.Fatal(err)
			}
			planned += plan(child, sub)
		}
		return planned
	}
	planned := plan(chip, "da:chip")
	// chip + 3 modules (blocks are non-leaf at depth 2): 1 + 3 = 4 DAs
	// produce floorplans.
	if planned != 4 {
		t.Fatalf("planned %d cells, want 4", planned)
	}
	hier, err := cm.Hierarchy("da:chip")
	if err != nil {
		t.Fatal(err)
	}
	if len(hier) != 4 {
		t.Fatalf("hierarchy = %v", hier)
	}
	if sys.Repo().DOVCount() != 4 {
		t.Fatalf("DOVs = %d", sys.Repo().DOVCount())
	}
	// The delegation legality held everywhere: each sub-DA DOT is part of
	// the super DOT (checked by CreateSubDA); the protocol log recorded
	// the whole process.
	if cm.ProtocolLogLen() < 8 {
		t.Fatalf("protocol log = %d entries", cm.ProtocolLogLen())
	}
	// Terminate bottom-up.
	for i := len(hier) - 1; i >= 1; i-- {
		da, err := cm.Get(hier[i])
		if err != nil {
			t.Fatal(err)
		}
		// Give each sub-DA a final version so ready-to-commit succeeds.
		g, err := sys.Repo().Graph(hier[i])
		if err != nil {
			t.Fatal(err)
		}
		ids := g.IDs()
		if len(ids) == 0 {
			t.Fatalf("%s has no versions", hier[i])
		}
		if err := sys.Repo().SetStatus(ids[len(ids)-1], version.StatusFinal); err != nil {
			t.Fatal(err)
		}
		if err := cm.SubDAReadyToCommit(hier[i]); err != nil {
			t.Fatalf("%s ready: %v", hier[i], err)
		}
		if err := cm.TerminateSubDA(da.Parent, hier[i]); err != nil {
			t.Fatalf("%s terminate: %v", hier[i], err)
		}
	}
	if err := cm.TerminateTopLevel("da:chip"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyTransportStillCorrect runs a small workload through a lossy
// in-process LAN: every DOP must still complete exactly once.
func TestFaultyTransportStillCorrect(t *testing.T) {
	sys, err := bootSystem(Options{RegisterTypes: vlsi.RegisterCatalog},
		rpc.FaultPlan{DropRequest: 0.15, DropResponse: 0.15, Duplicate: 0.1, Seed: 99},
		repo.DefaultCheckpointLogBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	startDA(t, sys, "da1", areaSpec(1000))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	var prev version.ID
	for i := 0; i < 10; i++ {
		prev = planOnce(t, ws, "da1", float64(100-i), prev)
	}
	g, err := sys.Repo().Graph("da1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 {
		t.Fatalf("graph len = %d, want 10 (exactly-once violated under loss)", g.Len())
	}
	if !g.Acyclic() {
		t.Fatal("graph corrupted under lossy transport")
	}
}
