package core

import (
	"strings"

	"concord/internal/coop"
	"concord/internal/script"
	"concord/internal/version"
)

// versionID converts event data to a version identifier.
func versionID(s string) version.ID { return version.ID(s) }

// StandardRules builds the canonical ECA rule set a design manager installs
// for its DA (Sect. 4.2 / 5.3):
//
//   - WHEN Require IF a qualifying DOV is available THEN Propagate it
//     (immediately satisfying the pending request);
//   - WHEN Withdraw THEN analyze whether the withdrawn version affected
//     locally derived DOVs; if so, stop the script so the designer decides
//     how to continue (work unaffected by the withdrawal proceeds);
//   - WHEN Spec_Modified THEN stop the script — DA execution restarts from
//     the beginning under the new specification (the caller resets the
//     journal before re-running);
//   - WHEN Propose THEN stop the script — internal processing is suspended
//     while negotiating.
//
// Rule outcomes are recorded in script variables for diagnostics:
// "rule:propagated", "rule:withdraw-affected", "rule:spec-modified",
// "rule:negotiating". Actions resolve the CM when they run, so the rules
// follow a server restart or a failover.
func StandardRules(sys *System, da string) []script.Rule {
	return []script.Rule{
		{
			Name:  "auto-propagate-on-require",
			Event: coop.EventRequire,
			Action: func(c *script.Ctx, ev script.Event) error {
				// The pending request's features are recorded at the CM;
				// AutoPropagate re-checks every pending request for this
				// supporter by propagating a version that covers it.
				cm := sys.CM()
				if cm == nil {
					return errServerDown
				}
				reqs, err := cm.PendingRequireFeatures(da)
				if err != nil {
					return err
				}
				for _, features := range reqs {
					if dov, ok, err := cm.AutoPropagate(da, features); err != nil {
						return err
					} else if ok {
						c.SetVar("rule:propagated", string(dov))
					}
				}
				return nil
			},
		},
		{
			Name:  "analyze-withdrawal",
			Event: coop.EventWithdraw,
			Action: func(c *script.Ctx, ev script.Event) error {
				cm := sys.CM()
				if cm == nil {
					return errServerDown
				}
				affected, err := cm.AffectedByWithdrawal(da, versionID(ev.Data["dov"]))
				if err != nil {
					return err
				}
				if len(affected) > 0 {
					ids := make([]string, len(affected))
					for i, a := range affected {
						ids[i] = string(a)
					}
					c.SetVar("rule:withdraw-affected", strings.Join(ids, ","))
					c.Stop() // designer decides how to continue (Sect. 5.3)
				}
				return nil
			},
		},
		{
			Name:  "restart-on-spec-change",
			Event: coop.EventSpecModified,
			Action: func(c *script.Ctx, ev script.Event) error {
				c.SetVar("rule:spec-modified", ev.Data["super"])
				c.Stop()
				return nil
			},
		},
		{
			Name:  "suspend-while-negotiating",
			Event: coop.EventPropose,
			Action: func(c *script.Ctx, ev script.Event) error {
				c.SetVar("rule:negotiating", ev.Data["from"])
				c.Stop()
				return nil
			},
		},
	}
}
