package coop

import (
	"fmt"
	"sort"

	"concord/internal/feature"
	"concord/internal/version"
)

// AffectedByWithdrawal analyzes whether a withdrawn pre-released DOV was
// used within the DA's local DOPs, "thus affecting locally derived DOVs"
// (Sect. 5.3): it returns every version of the DA's derivation graph that
// has the withdrawn version among its transitive ancestors (foreign parent
// edges included). An empty result means the designer need not invalidate
// anything.
func (cm *CM) AffectedByWithdrawal(da string, withdrawn version.ID) ([]version.ID, error) {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	if _, err := cm.get(da); err != nil {
		return nil, err
	}
	g, err := cm.repo.Graph(da)
	if err != nil {
		return nil, err
	}
	// ancestorsOf chases parent edges through the global repository index,
	// crossing graph boundaries (usage inputs are foreign parents).
	memo := make(map[version.ID]bool)
	var reaches func(id version.ID) bool
	reaches = func(id version.ID) bool {
		if id == withdrawn {
			return true
		}
		if hit, ok := memo[id]; ok {
			return hit
		}
		memo[id] = false // cycle guard (derivations are acyclic anyway)
		v, err := cm.repo.Get(id)
		if err != nil {
			return false
		}
		for _, p := range v.Parents {
			if reaches(p) {
				memo[id] = true
				return true
			}
		}
		return false
	}
	var out []version.ID
	for _, id := range g.IDs() {
		if id == withdrawn {
			continue
		}
		if reaches(id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// AutoPropagate searches the DA's derivation graph for a version whose
// quality state covers the required features — evaluating unevaluated
// versions on the fly — and propagates the first match. It implements the
// canonical ECA reaction "WHEN Require IF (required DOV available) THEN
// Propagate" (Sect. 4.2). ok is false when no version qualifies.
func (cm *CM) AutoPropagate(da string, features []string) (version.ID, bool, error) {
	cm.mu.RLock()
	st, err := cm.get(da)
	if err != nil {
		cm.mu.RUnlock()
		return "", false, err
	}
	st.mu.Lock()
	if _, legal := Legal(st.da.State, OpPropagate); !legal {
		state := st.da.State
		st.mu.Unlock()
		cm.mu.RUnlock()
		return "", false, fmt.Errorf("%w: AutoPropagate by %s in state %s", ErrIllegalOp, da, state)
	}
	spec := st.da.Spec
	st.mu.Unlock()
	g, err := cm.repo.Graph(da)
	if err != nil {
		cm.mu.RUnlock()
		return "", false, err
	}
	var match version.ID
	for _, id := range g.IDs() {
		v, err := cm.repo.Get(id)
		if err != nil {
			continue
		}
		fulfilled := v.Fulfilled
		if len(fulfilled) == 0 {
			obj, err := cm.repo.Object(id)
			if err != nil {
				continue
			}
			q := spec.Evaluate(obj, cm.reg)
			fulfilled = q.Fulfilled
			cm.repo.SetFulfilled(id, fulfilled) //nolint:errcheck // cache
			if q.Final() && !spec.Empty() {
				cm.repo.SetStatus(id, version.StatusFinal) //nolint:errcheck // cache
			}
		}
		if (feature.QualityState{Fulfilled: fulfilled}).Covers(features) {
			match = id
			break
		}
	}
	cm.mu.RUnlock()
	if match == "" {
		return "", false, nil
	}
	if _, err := cm.Propagate(da, match); err != nil {
		return "", false, err
	}
	return match, true, nil
}
