package coop

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"concord/internal/feature"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/script"
	"concord/internal/version"
)

// Errors reported by the cooperation manager.
var (
	ErrUnknownDA     = errors.New("coop: unknown DA")
	ErrDuplicateDA   = errors.New("coop: duplicate DA")
	ErrIllegalOp     = errors.New("coop: operation illegal in current DA state")
	ErrNotParent     = errors.New("coop: DA is not the super-DA")
	ErrNotSiblings   = errors.New("coop: DAs are not sub-DAs of the same super-DA")
	ErrNoNegotiation = errors.New("coop: no negotiation relationship")
	ErrNoUsage       = errors.New("coop: no usage relationship")
	ErrNotRefinement = errors.New("coop: specification is not a refinement")
	ErrDOTNotPart    = errors.New("coop: sub-DA DOT is not part of the super-DA DOT")
	ErrChildrenLive  = errors.New("coop: sub-DAs not yet terminated")
	ErrNoFinalDOV    = errors.New("coop: no final DOV reached")
	ErrOutOfScope    = errors.New("coop: DOV not in DA scope")
)

// Event names delivered to DA subscribers (consumed by DC-level ECA rules).
const (
	EventRequire       = "Require"
	EventPropagated    = "Propagated"
	EventWithdraw      = "Withdraw"
	EventReplaced      = "Replaced"
	EventSpecModified  = "Spec_Modified"
	EventReadyToCommit = "Sub_DA_Ready_To_Commit"
	EventImpossible    = "Sub_DA_Impossible_Spec"
	EventPropose       = "Propose"
	EventAgree         = "Agree"
	EventDisagree      = "Disagree"
	EventSpecConflict  = "Sub_DA_Spec_Conflict"
	EventTerminated    = "Terminated"
)

// grant records one DOV made visible to a peer along a usage relationship.
type grant struct {
	Peer     string
	DOV      version.ID
	Features []string
}

// pendingRequire is an unsatisfied Require awaiting a qualifying Propagate.
type pendingRequire struct {
	Requirer string
	Features []string
}

// daRecord is the persistent form of a DA plus its cooperation bookkeeping.
type daRecord struct {
	ID              string
	DOT             string
	DOV0            version.ID
	SpecFeatures    []feature.Feature
	Designer        string
	DC              string
	State           State
	Parent          string
	Children        []string
	Negotiations    []string
	UsesFrom        map[string][]string
	SupportsTo      map[string]bool
	InheritedFinals []version.ID
	Grants          []grant
	Pending         []pendingRequire
}

// queuedEvent is one notification awaiting dispatch to a DA's sink.
type queuedEvent struct {
	da   string
	name string
	data map[string]string
}

// CM is the cooperation manager: the centralized mediator between
// cooperating DAs (Sect. 5.4). It enforces that cooperation takes place only
// along established relationships, checks every cooperative activity against
// the relationship's integrity constraints, drives the Fig. 7 state machine,
// and persists the DA hierarchy in the server repository so a server crash
// loses nothing.
//
// Concurrency: the CM uses two lock levels so that DOPs of distinct DAs
// proceed in parallel. cm.mu (an RWMutex) guards the DA map; operations on
// existing DAs hold it in read mode for their whole duration and serialize
// per DA through each daState's own mutex, taken in sorted-ID order when an
// operation spans several DAs. Structural operations (InitDesign,
// CreateSubDA, TerminateSubDA, TerminateTopLevel) take cm.mu in write mode,
// which excludes every other operation. Event notifications never run under
// any of these locks: notify only enqueues, and a single dispatcher
// goroutine delivers events to sinks in enqueue order (see dispatch).
type CM struct {
	repo   *repo.Repository
	scopes *lock.ScopeTable
	reg    *feature.Registry

	mu  sync.RWMutex
	das map[string]*daState

	sinkMu sync.RWMutex
	sinks  map[string]func(script.Event)

	logMu   sync.Mutex
	logSeq  uint64
	opCount map[OpCode]int

	evMu     sync.Mutex
	evCond   *sync.Cond
	evQueue  []queuedEvent
	evClosed bool
	evDone   chan struct{}
}

// daState couples the public DA view with volatile bookkeeping. mu guards
// da, grants and pending; the ID field of da is immutable and may be read
// without it.
type daState struct {
	mu      sync.Mutex
	da      *DA
	grants  []grant
	pending []pendingRequire
}

// NewCM builds a cooperation manager over the repository, scope table and
// feature-tool registry, recovering any persisted DA hierarchy (the CM
// "only needs to hold persistent the DA-hierarchy-describing information"
// to survive a server crash, Sect. 5.4). Recovery assumes a freshly created
// scope table and re-derives all scope locks from the persisted hierarchy.
func NewCM(r *repo.Repository, scopes *lock.ScopeTable, reg *feature.Registry) (*CM, error) {
	cm := &CM{
		repo:    r,
		scopes:  scopes,
		reg:     reg,
		das:     make(map[string]*daState),
		sinks:   make(map[string]func(script.Event)),
		opCount: make(map[OpCode]int),
		evDone:  make(chan struct{}),
	}
	cm.evCond = sync.NewCond(&cm.evMu)
	if err := cm.recover(); err != nil {
		return nil, err
	}
	go cm.dispatch()
	return cm, nil
}

// Close stops the event dispatcher after draining queued notifications.
// Subsequent notifications are dropped. Safe to call more than once.
func (cm *CM) Close() {
	cm.evMu.Lock()
	if !cm.evClosed {
		cm.evClosed = true
		cm.evCond.Broadcast()
	}
	cm.evMu.Unlock()
	<-cm.evDone
}

// dispatch delivers queued events to sinks, one at a time in enqueue order.
// It holds no CM state lock while a sink runs, so sinks may re-enter the CM
// freely (ECA rules typically do).
func (cm *CM) dispatch() {
	for {
		cm.evMu.Lock()
		for len(cm.evQueue) == 0 && !cm.evClosed {
			cm.evCond.Wait()
		}
		if len(cm.evQueue) == 0 {
			cm.evMu.Unlock()
			close(cm.evDone)
			return
		}
		q := cm.evQueue[0]
		cm.evQueue = cm.evQueue[1:]
		cm.evMu.Unlock()
		cm.sinkMu.RLock()
		sink := cm.sinks[q.da]
		cm.sinkMu.RUnlock()
		if sink != nil {
			sink(script.Event{Name: q.name, Data: q.data})
		}
	}
}

func (cm *CM) recover() error {
	// The protocol log continues after its highest entry (keys are
	// zero-padded, so the sorted last is the highest).
	if logs := cm.repo.ListMeta("cm/log/"); len(logs) > 0 {
		seq, err := strconv.ParseUint(strings.TrimPrefix(logs[len(logs)-1], "cm/log/"), 10, 64)
		if err != nil {
			return fmt.Errorf("coop: recover protocol log position: %w", err)
		}
		cm.logSeq = seq
	}
	keys := cm.repo.ListMeta("cm/da/")
	sort.Strings(keys)
	for _, key := range keys {
		data, err := cm.repo.GetMeta(key)
		if err != nil {
			return err
		}
		var rec daRecord
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
			return fmt.Errorf("coop: recover DA record %s: %w", key, err)
		}
		spec, err := feature.NewSpec(rec.SpecFeatures...)
		if err != nil {
			return err
		}
		da := &DA{
			ID: rec.ID, DOT: rec.DOT, DOV0: rec.DOV0, Spec: spec,
			Designer: rec.Designer, DC: rec.DC, State: rec.State,
			Parent: rec.Parent, Children: rec.Children,
			Negotiations: rec.Negotiations, UsesFrom: rec.UsesFrom,
			SupportsTo: rec.SupportsTo, InheritedFinals: rec.InheritedFinals,
		}
		if da.UsesFrom == nil {
			da.UsesFrom = make(map[string][]string)
		}
		if da.SupportsTo == nil {
			da.SupportsTo = make(map[string]bool)
		}
		cm.das[rec.ID] = &daState{da: da, grants: rec.Grants, pending: rec.Pending}
	}
	// Re-derive the scope table: graph DOVs are owned by their DA unless
	// inherited; usage grants restore reader locks.
	inherited := make(map[version.ID]string)
	for id, st := range cm.das {
		for _, f := range st.da.InheritedFinals {
			inherited[f] = id
		}
	}
	for id, st := range cm.das {
		g, err := cm.repo.Graph(id)
		if err != nil {
			continue // DA without a graph yet
		}
		terminated := st.da.State == StateTerminated
		for _, dov := range g.IDs() {
			owner := id
			if inh, ok := inherited[dov]; ok {
				owner = inh // finals devolved to the inheriting super-DA
			} else if terminated {
				continue // scope of a terminated DA was released
			}
			if err := cm.scopes.Own(owner, string(dov)); err != nil {
				return err
			}
		}
	}
	for id, st := range cm.das {
		for _, gr := range st.grants {
			cm.scopes.GrantUse(gr.Peer, string(gr.DOV))
		}
		if st.da.DOV0 != "" && st.da.State != StateTerminated {
			cm.scopes.GrantUse(id, string(st.da.DOV0))
		}
	}
	return nil
}

// persist writes a DA's durable record. Callers hold st.mu (or cm.mu in
// write mode).
func (cm *CM) persist(st *daState) error {
	da := st.da
	rec := daRecord{
		ID: da.ID, DOT: da.DOT, DOV0: da.DOV0,
		SpecFeatures: da.Spec.Features(), Designer: da.Designer, DC: da.DC,
		State: da.State, Parent: da.Parent, Children: da.Children,
		Negotiations: da.Negotiations, UsesFrom: da.UsesFrom,
		SupportsTo: da.SupportsTo, InheritedFinals: da.InheritedFinals,
		Grants: st.grants, Pending: st.pending,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return fmt.Errorf("coop: encode DA record: %w", err)
	}
	return cm.repo.PutMeta("cm/da/"+da.ID, buf.Bytes())
}

// logOp appends one entry to the persistent cooperation protocol log
// ("logging the cooperation protocols in the entire DA hierarchy",
// Sect. 5.1).
func (cm *CM) logOp(op OpCode, subject, detail string) {
	cm.logMu.Lock()
	cm.logSeq++
	seq := cm.logSeq
	cm.opCount[op]++
	cm.logMu.Unlock()
	key := fmt.Sprintf("cm/log/%012d", seq)
	entry := fmt.Sprintf("%s\x00%s\x00%s", op, subject, detail)
	cm.repo.PutMeta(key, []byte(entry)) //nolint:errcheck // audit log, best effort
}

// OpCounts returns how often each cooperation operation executed (E1/E7
// diagnostics).
func (cm *CM) OpCounts() map[OpCode]int {
	cm.logMu.Lock()
	defer cm.logMu.Unlock()
	out := make(map[OpCode]int, len(cm.opCount))
	for k, v := range cm.opCount {
		out[k] = v
	}
	return out
}

// ProtocolLogLen reports the persistent protocol log length.
func (cm *CM) ProtocolLogLen() int { return len(cm.repo.ListMeta("cm/log/")) }

// Subscribe registers the event sink of a DA (its design manager). Only one
// sink per DA; nil unsubscribes.
func (cm *CM) Subscribe(da string, sink func(script.Event)) {
	cm.sinkMu.Lock()
	defer cm.sinkMu.Unlock()
	if sink == nil {
		delete(cm.sinks, da)
		return
	}
	cm.sinks[da] = sink
}

// notify enqueues an event for a DA's sink. Delivery is asynchronous and
// ordered: the dispatcher goroutine invokes sinks outside all CM state
// locks, in the order notify was called.
func (cm *CM) notify(da, event string, data map[string]string) {
	cm.evMu.Lock()
	if !cm.evClosed {
		cm.evQueue = append(cm.evQueue, queuedEvent{da: da, name: event, data: data})
		cm.evCond.Signal()
	}
	cm.evMu.Unlock()
}

// get looks a DA up. Callers hold cm.mu (read or write mode).
func (cm *CM) get(id string) (*daState, error) {
	st, ok := cm.das[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDA, id)
	}
	return st, nil
}

// lockOrdered locks the given states in DA-ID order (nil entries and
// duplicates tolerated) and returns the matching unlock function. Taking
// multiple DA locks only through this helper keeps multi-DA operations
// deadlock-free.
func lockOrdered(states ...*daState) func() {
	uniq := make([]*daState, 0, len(states))
	seen := make(map[*daState]bool, len(states))
	for _, s := range states {
		if s != nil && !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].da.ID < uniq[j].da.ID })
	for _, s := range uniq {
		s.mu.Lock()
	}
	return func() {
		for i := len(uniq) - 1; i >= 0; i-- {
			uniq[i].mu.Unlock()
		}
	}
}

// step applies op to the subject DA, enforcing the Fig. 7 matrix.
// Callers hold st.mu (or cm.mu in write mode).
func (cm *CM) step(st *daState, op OpCode) error {
	next, ok := Legal(st.da.State, op)
	if !ok {
		return fmt.Errorf("%w: %s in state %s of %s", ErrIllegalOp, op, st.da.State, st.da.ID)
	}
	st.da.State = next
	return nil
}

// Config is the description vector of a DA to be created.
type Config struct {
	// ID is the hierarchy-wide identifier.
	ID string
	// DOT is the design object type (first description-vector component).
	DOT string
	// DOV0 optionally seeds the scope with an initial version.
	DOV0 version.ID
	// Spec is the design specification (goal).
	Spec *feature.Spec
	// Designer is the responsible designer.
	Designer string
	// DC names the design strategy (script) to apply.
	DC string
}

func (cm *CM) buildDA(cfg Config, parent string) (*daState, error) {
	if cfg.ID == "" {
		return nil, errors.New("coop: DA needs an ID")
	}
	if _, err := cm.repo.Catalog().Lookup(cfg.DOT); err != nil {
		return nil, err
	}
	if cfg.Spec == nil {
		cfg.Spec = feature.MustSpec()
	}
	da := &DA{
		ID: cfg.ID, DOT: cfg.DOT, DOV0: cfg.DOV0, Spec: cfg.Spec,
		Designer: cfg.Designer, DC: cfg.DC, State: StateGenerated,
		Parent:     parent,
		UsesFrom:   make(map[string][]string),
		SupportsTo: make(map[string]bool),
	}
	return &daState{da: da}, nil
}

// InitDesign initiates a design process by creating the top-level DA
// (operation 1 of Fig. 7). The DA starts in state generated. Structural:
// takes cm.mu in write mode.
func (cm *CM) InitDesign(cfg Config) error {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if _, dup := cm.das[cfg.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateDA, cfg.ID)
	}
	st, err := cm.buildDA(cfg, "")
	if err != nil {
		return err
	}
	if cfg.DOV0 != "" {
		ok, err := cm.repo.Exists(cfg.DOV0)
		if err != nil {
			return err // repository fail-stop, not a missing DOV
		}
		if !ok {
			return fmt.Errorf("%w: DOV0 %s", version.ErrUnknownDOV, cfg.DOV0)
		}
		cm.scopes.GrantUse(cfg.ID, string(cfg.DOV0))
	}
	if err := cm.repo.CreateGraph(cfg.ID); err != nil {
		return err
	}
	cm.das[cfg.ID] = st
	cm.logOp(OpInitDesign, cfg.ID, cfg.DOT)
	return cm.persist(st)
}

// CreateSubDA delegates part of a design task by creating a sub-DA
// (operation 2). The issuing super-DA must be active, and the sub-DA's DOT
// must be a part of the super-DA's DOT (Sect. 4.1). A DOV0, if given, must
// lie in the super-DA's scope and becomes readable by the sub-DA.
// Structural: takes cm.mu in write mode.
func (cm *CM) CreateSubDA(super string, cfg Config) error {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	sup, err := cm.get(super)
	if err != nil {
		return err
	}
	if _, ok := Legal(sup.da.State, OpCreateSubDA); !ok {
		return fmt.Errorf("%w: Create_Sub_DA by %s in state %s", ErrIllegalOp, super, sup.da.State)
	}
	if _, dup := cm.das[cfg.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateDA, cfg.ID)
	}
	isPart, err := cm.repo.Catalog().IsPartOf(cfg.DOT, sup.da.DOT)
	if err != nil {
		return err
	}
	if !isPart {
		return fmt.Errorf("%w: %s in %s", ErrDOTNotPart, cfg.DOT, sup.da.DOT)
	}
	st, err := cm.buildDA(cfg, super)
	if err != nil {
		return err
	}
	if cfg.DOV0 != "" {
		if !cm.scopes.InScope(super, string(cfg.DOV0)) {
			return fmt.Errorf("%w: DOV0 %s not in scope of %s", ErrOutOfScope, cfg.DOV0, super)
		}
		cm.scopes.GrantUse(cfg.ID, string(cfg.DOV0))
	}
	if err := cm.repo.CreateGraph(cfg.ID); err != nil {
		return err
	}
	cm.das[cfg.ID] = st
	sup.da.Children = append(sup.da.Children, cfg.ID)
	cm.logOp(OpCreateSubDA, cfg.ID, "super="+super)
	if err := cm.persist(sup); err != nil {
		return err
	}
	return cm.persist(st)
}

// Start begins a generated DA's work (operation 3).
func (cm *CM) Start(da string) error {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	st, err := cm.get(da)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := cm.step(st, OpStart); err != nil {
		return err
	}
	cm.logOp(OpStart, da, "")
	return cm.persist(st)
}

// Evaluate determines the quality state of a DOV with respect to the DA's
// specification (operation 7): the fulfilled feature subset is recorded, and
// a DOV fulfilling the whole specification becomes final.
func (cm *CM) Evaluate(da string, dov version.ID) (feature.QualityState, error) {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	st, err := cm.get(da)
	if err != nil {
		return feature.QualityState{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := Legal(st.da.State, OpEvaluate); !ok {
		return feature.QualityState{}, fmt.Errorf("%w: Evaluate by %s in state %s", ErrIllegalOp, da, st.da.State)
	}
	if !cm.scopes.InScope(da, string(dov)) {
		return feature.QualityState{}, fmt.Errorf("%w: %s for %s", ErrOutOfScope, dov, da)
	}
	obj, err := cm.repo.Object(dov)
	if err != nil {
		return feature.QualityState{}, err
	}
	q := st.da.Spec.Evaluate(obj, cm.reg)
	if err := cm.repo.SetFulfilled(dov, q.Fulfilled); err != nil {
		return q, err
	}
	if q.Final() && !st.da.Spec.Empty() {
		if err := cm.repo.SetStatus(dov, version.StatusFinal); err != nil {
			return q, err
		}
	}
	cm.logOp(OpEvaluate, da, string(dov))
	return q, nil
}
