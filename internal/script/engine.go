package script

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors reported by the engine.
var (
	// ErrStopped interrupts script execution (external event or designer
	// intervention); the journal keeps the position for a later resume.
	ErrStopped = errors.New("script: execution stopped")
	// ErrNoRunner rejects execution without an operation runner.
	ErrNoRunner = errors.New("script: no operation runner configured")
)

// MetaStore is the persistent store for scripts and execution journals. It
// matches the metadata interface of the design data repository (the paper
// keeps DM context data in the server DBMS, Sect. 5.1).
type MetaStore interface {
	PutMeta(key string, value []byte) error
	GetMeta(key string) ([]byte, error)
	ListMeta(prefix string) []string
	DeleteMeta(key string) error
}

// Runner executes one operation of a script. params arrive with "$last"
// already substituted by the preceding operation's result. The returned
// string is the operation's result (typically a DOV identifier plus status
// information — the only data flowing between DOPs, Sect. 4.2).
type Runner func(ctx *Ctx, op Op, params map[string]string) (string, error)

// Designer supplies the creative decisions a script leaves open (Sect. 4.2).
// Implementations are interactive in a real deployment and policy-driven in
// simulation.
type Designer interface {
	// ChooseAlternative picks a branch of an Alt node.
	ChooseAlternative(da, decision string, labels []string) (int, error)
	// ContinueLoop decides whether a Loop body runs another iteration.
	ContinueLoop(da, loop string, iteration int) (bool, error)
	// NextOpenStep yields the next operation of an Open region, or
	// done=true to close the region.
	NextOpenStep(da, region string, step int) (op Op, done bool, err error)
}

// AutoDesigner is the default non-interactive policy: first alternative,
// no loop repetitions, empty open regions.
type AutoDesigner struct{}

// ChooseAlternative implements Designer.
func (AutoDesigner) ChooseAlternative(_, _ string, _ []string) (int, error) { return 0, nil }

// ContinueLoop implements Designer.
func (AutoDesigner) ContinueLoop(_, _ string, _ int) (bool, error) { return false, nil }

// NextOpenStep implements Designer.
func (AutoDesigner) NextOpenStep(_, _ string, _ int) (Op, bool, error) { return Op{}, true, nil }

// Event is an asynchronously occurring cooperation event delivered to a DA
// (Propose, Require, specification changes, withdrawals...).
type Event struct {
	// Name selects the ECA rules to fire.
	Name string
	// Data carries event parameters.
	Data map[string]string
}

// Rule is an (event, condition, action) triple: "WHEN Require IF (required
// DOV available) THEN Propagate" (Sect. 4.2).
type Rule struct {
	// Name labels the rule in diagnostics.
	Name string
	// Event is the triggering event name.
	Event string
	// Condition gates the action; nil means always.
	Condition func(*Ctx, Event) bool
	// Action reacts to the event. Returning an error stops the script.
	Action func(*Ctx, Event) error
}

// Ctx is the execution context handed to runners, rules and conditions.
type Ctx struct {
	// DA is the owning design activity.
	DA string
	e  *Engine
}

// Var reads an execution variable.
func (c *Ctx) Var(name string) string {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.e.vars[name]
}

// SetVar writes an execution variable.
func (c *Ctx) SetVar(name, value string) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.e.vars[name] = value
}

// Stop interrupts script execution at the next operation boundary.
func (c *Ctx) Stop() { c.e.stop.Store(true) }

// PostEvent enqueues a follow-up event (rules may chain).
func (c *Ctx) PostEvent(ev Event) { c.e.PostEvent(ev) }

// journalEntry is one durable record of the execution journal.
type journalEntry struct {
	Kind   string // "start", "op", "alt", "loop", "open"
	Result string
	Choice int
	Cont   bool
	Op     Op
	Done   bool
}

// Engine executes one script with journaled, resumable progress.
type Engine struct {
	da          string
	store       MetaStore
	designer    Designer
	runner      Runner
	rules       []Rule
	constraints *ConstraintSet

	mu        sync.Mutex
	vars      map[string]string
	completed map[string]int
	lastDOP   string
	events    []Event
	stop      atomic.Bool
	// opsRun counts live (non-replayed) operation executions.
	opsRun int
	// opsReplayed counts journal-satisfied operations.
	opsReplayed int
}

// NewEngine builds an engine. store and designer may be nil (volatile
// execution, auto decisions).
func NewEngine(da string, store MetaStore, designer Designer, runner Runner, rules []Rule, constraints *ConstraintSet) *Engine {
	if designer == nil {
		designer = AutoDesigner{}
	}
	return &Engine{
		da:          da,
		store:       store,
		designer:    designer,
		runner:      runner,
		rules:       rules,
		constraints: constraints,
		vars:        make(map[string]string),
		completed:   make(map[string]int),
	}
}

// PostEvent enqueues an external cooperation event; matching ECA rules fire
// at the next operation boundary.
func (e *Engine) PostEvent(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, ev)
}

// Stats reports (live, replayed) operation counts.
func (e *Engine) Stats() (run, replayed int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opsRun, e.opsReplayed
}

// ClearStop re-arms a stopped engine for resumption.
func (e *Engine) ClearStop() { e.stop.Store(false) }

// Var reads an execution variable (rule outcomes, op results).
func (e *Engine) Var(name string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vars[name]
}

func (e *Engine) journalKey(path string) string {
	return "dm/" + e.da + "/j/" + path
}

func (e *Engine) readEntry(path string) (*journalEntry, bool) {
	if e.store == nil {
		return nil, false
	}
	data, err := e.store.GetMeta(e.journalKey(path))
	if err != nil {
		return nil, false
	}
	var ent journalEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ent); err != nil {
		return nil, false
	}
	return &ent, true
}

func (e *Engine) writeEntry(path string, ent journalEntry) error {
	if e.store == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ent); err != nil {
		return fmt.Errorf("script: journal encode: %w", err)
	}
	return e.store.PutMeta(e.journalKey(path), buf.Bytes())
}

// drainEvents fires ECA rules for queued events. Rule actions run in event
// order; an action error aborts execution.
func (e *Engine) drainEvents(ctx *Ctx) error {
	for {
		e.mu.Lock()
		if len(e.events) == 0 {
			e.mu.Unlock()
			return nil
		}
		ev := e.events[0]
		e.events = e.events[1:]
		rules := e.rules
		e.mu.Unlock()
		for _, r := range rules {
			if r.Event != ev.Name {
				continue
			}
			if r.Condition != nil && !r.Condition(ctx, ev) {
				continue
			}
			if err := r.Action(ctx, ev); err != nil {
				return fmt.Errorf("script: rule %q: %w", r.Name, err)
			}
		}
	}
}

// Run executes the script from the beginning, replaying any journaled
// progress first. It returns ErrStopped when interrupted; calling Run again
// resumes from the journal.
func (e *Engine) Run(n Node) error {
	if e.runner == nil {
		return ErrNoRunner
	}
	ctx := &Ctx{DA: e.da, e: e}
	_, err := e.exec(ctx, n, "r", "")
	return err
}

// checkpoint runs between operations: event rules, then the stop flag.
func (e *Engine) checkpoint(ctx *Ctx) error {
	if err := e.drainEvents(ctx); err != nil {
		return err
	}
	if e.stop.Load() {
		return ErrStopped
	}
	return nil
}

// exec walks the script. path uniquely identifies the node instance
// (iterations included) and keys the journal. last is the preceding result
// in the sequential flow; the fragment's final result is returned.
func (e *Engine) exec(ctx *Ctx, n Node, path, last string) (string, error) {
	switch t := n.(type) {
	case Op:
		return e.execOp(ctx, t, path, last)
	case Seq:
		cur := last
		for i, st := range t.Steps {
			res, err := e.exec(ctx, st, fmt.Sprintf("%s.%d", path, i), cur)
			if err != nil {
				return "", err
			}
			cur = res
		}
		return cur, nil
	case Par:
		var wg sync.WaitGroup
		errs := make([]error, len(t.Branches))
		for i := range t.Branches {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = e.exec(ctx, t.Branches[i], fmt.Sprintf("%s.p%d", path, i), last)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return "", err
			}
		}
		return "", nil
	case Alt:
		if err := e.checkpoint(ctx); err != nil {
			return "", err
		}
		key := path + ":alt"
		choice := -1
		if ent, ok := e.readEntry(key); ok {
			choice = ent.Choice
		} else {
			c, err := e.designer.ChooseAlternative(e.da, t.Name, t.Labels)
			if err != nil {
				return "", fmt.Errorf("script: alternative %q: %w", t.Name, err)
			}
			choice = c
			if err := e.writeEntry(key, journalEntry{Kind: "alt", Choice: c}); err != nil {
				return "", err
			}
		}
		if choice < 0 || choice >= len(t.Branches) {
			return "", fmt.Errorf("script: alternative %q: choice %d of %d branches", t.Name, choice, len(t.Branches))
		}
		return e.exec(ctx, t.Branches[choice], fmt.Sprintf("%s.a%d", path, choice), last)
	case Loop:
		cur := last
		for iter := 0; ; iter++ {
			res, err := e.exec(ctx, t.Body, fmt.Sprintf("%s.i%d", path, iter), cur)
			if err != nil {
				return "", err
			}
			cur = res
			if t.Max > 0 && iter+1 >= t.Max {
				return cur, nil
			}
			key := fmt.Sprintf("%s:it%d", path, iter)
			var cont bool
			if ent, ok := e.readEntry(key); ok {
				cont = ent.Cont
			} else {
				if err := e.checkpoint(ctx); err != nil {
					return "", err
				}
				c, err := e.designer.ContinueLoop(e.da, t.Name, iter)
				if err != nil {
					return "", fmt.Errorf("script: loop %q: %w", t.Name, err)
				}
				cont = c
				if err := e.writeEntry(key, journalEntry{Kind: "loop", Cont: c}); err != nil {
					return "", err
				}
			}
			if !cont {
				return cur, nil
			}
		}
	case Open:
		cur := last
		for step := 0; ; step++ {
			key := fmt.Sprintf("%s:step%d", path, step)
			var op Op
			var done bool
			if ent, ok := e.readEntry(key); ok {
				op, done = ent.Op, ent.Done
			} else {
				if err := e.checkpoint(ctx); err != nil {
					return "", err
				}
				o, d, err := e.designer.NextOpenStep(e.da, t.Name, step)
				if err != nil {
					return "", fmt.Errorf("script: open region %q: %w", t.Name, err)
				}
				op, done = o, d
				if err := e.writeEntry(key, journalEntry{Kind: "open", Op: o, Done: d}); err != nil {
					return "", err
				}
			}
			if done {
				return cur, nil
			}
			res, err := e.execOp(ctx, op, fmt.Sprintf("%s.s%d", path, step), cur)
			if err != nil {
				return "", err
			}
			cur = res
		}
	default:
		return "", fmt.Errorf("script: unknown node type %T", n)
	}
}

// execOp runs (or replays) a single operation.
func (e *Engine) execOp(ctx *Ctx, op Op, path, last string) (string, error) {
	if ent, ok := e.readEntry(path); ok && ent.Kind == "op" {
		// Journal hit: the operation completed in a previous incarnation.
		e.mu.Lock()
		e.completed[op.Name]++
		if op.IsDOP {
			e.lastDOP = op.Name
		}
		e.opsReplayed++
		e.mu.Unlock()
		return ent.Result, nil
	}
	if err := e.checkpoint(ctx); err != nil {
		return "", err
	}
	e.mu.Lock()
	err := e.constraints.checkRuntime(op.Name, op.IsDOP, e.completed, e.lastDOP)
	e.mu.Unlock()
	if err != nil {
		return "", err
	}
	// Substitute $last in parameters (data flow between DOPs).
	params := make(map[string]string, len(op.Params))
	for k, v := range op.Params {
		params[k] = strings.ReplaceAll(v, "$last", last)
	}
	// "A log entry capturing all DOP parameters is written for each start
	// and finish of a DOP execution" (Sect. 5.3).
	if err := e.writeEntry(path+":start", journalEntry{Kind: "start", Op: op}); err != nil {
		return "", err
	}
	result, err := e.runner(ctx, op, params)
	if err != nil {
		return "", fmt.Errorf("script: op %q: %w", op.Name, err)
	}
	if err := e.writeEntry(path, journalEntry{Kind: "op", Result: result}); err != nil {
		return "", err
	}
	e.mu.Lock()
	e.completed[op.Name]++
	if op.IsDOP {
		e.lastDOP = op.Name
	}
	e.opsRun++
	e.mu.Unlock()
	return result, nil
}

// DesignManager enforces the work flow within one DA and handles external
// cooperation events (Sect. 5.3). It persists its script and journal in the
// MetaStore so a workstation crash recovers to the last consistent position.
type DesignManager struct {
	da     string
	store  MetaStore
	script Node
	engine *Engine
}

// Config assembles a DesignManager.
type Config struct {
	// DA is the owning design activity identifier.
	DA string
	// Script is the work-flow template. When the store already holds a
	// persistent script for the DA (recovery), the stored script wins.
	Script Node
	// Store persists script and journal; nil disables recovery.
	Store MetaStore
	// Designer answers open decisions; nil uses AutoDesigner.
	Designer Designer
	// Runner executes operations. Required.
	Runner Runner
	// Rules are the DA's ECA rules.
	Rules []Rule
	// Constraints are the domain dependencies; the script is statically
	// validated against them.
	Constraints *ConstraintSet
}

// NewDesignManager validates the script against the domain constraints,
// persists it, and prepares an engine (resuming any journaled execution).
func NewDesignManager(cfg Config) (*DesignManager, error) {
	if cfg.DA == "" {
		return nil, errors.New("script: DesignManager needs a DA")
	}
	if cfg.Runner == nil {
		return nil, ErrNoRunner
	}
	scriptNode := cfg.Script
	if cfg.Store != nil {
		key := "dm/" + cfg.DA + "/script"
		if data, err := cfg.Store.GetMeta(key); err == nil {
			stored, err := DecodeScript(data)
			if err != nil {
				return nil, err
			}
			scriptNode = stored
		} else if scriptNode != nil {
			data, err := EncodeScript(scriptNode)
			if err != nil {
				return nil, err
			}
			if err := cfg.Store.PutMeta(key, data); err != nil {
				return nil, err
			}
		}
	}
	if scriptNode == nil {
		return nil, errors.New("script: no script given or stored")
	}
	if err := cfg.Constraints.Validate(scriptNode); err != nil {
		return nil, err
	}
	return &DesignManager{
		da:     cfg.DA,
		store:  cfg.Store,
		script: scriptNode,
		engine: NewEngine(cfg.DA, cfg.Store, cfg.Designer, cfg.Runner, cfg.Rules, cfg.Constraints),
	}, nil
}

// DA returns the owning design activity identifier.
func (dm *DesignManager) DA() string { return dm.da }

// Script returns the (possibly recovered) work-flow template.
func (dm *DesignManager) Script() Node { return dm.script }

// Engine exposes the underlying engine (statistics, variables).
func (dm *DesignManager) Engine() *Engine { return dm.engine }

// Run executes the script to completion, resuming from the journal if a
// previous incarnation made progress. ErrStopped indicates interruption.
func (dm *DesignManager) Run() error {
	dm.engine.ClearStop()
	return dm.engine.Run(dm.script)
}

// PostEvent delivers an external cooperation event to the DA's rules.
func (dm *DesignManager) PostEvent(ev Event) { dm.engine.PostEvent(ev) }

// Stop interrupts the running script at the next operation boundary.
func (dm *DesignManager) Stop() { dm.engine.stop.Store(true) }

// ResetJournal discards journaled progress: the DA execution "has to be
// restarted from the beginning" after a specification change (Sect. 5.3).
// The persistent script survives.
func (dm *DesignManager) ResetJournal() error {
	if dm.store == nil {
		dm.engine = NewEngine(dm.da, dm.store, dm.engine.designer, dm.engine.runner, dm.engine.rules, dm.engine.constraints)
		return nil
	}
	keys := dm.store.ListMeta("dm/" + dm.da + "/j/")
	sort.Strings(keys)
	for _, k := range keys {
		if err := dm.store.DeleteMeta(k); err != nil {
			return err
		}
	}
	dm.engine = NewEngine(dm.da, dm.store, dm.engine.designer, dm.engine.runner, dm.engine.rules, dm.engine.constraints)
	return nil
}

// JournaledOps reports how many operation-completion entries the persistent
// journal holds (diagnostics for recovery tests).
func (dm *DesignManager) JournaledOps() int {
	if dm.store == nil {
		return 0
	}
	n := 0
	for _, k := range dm.store.ListMeta("dm/" + dm.da + "/j/") {
		if !strings.Contains(k, ":") {
			n++
		}
	}
	return n
}
