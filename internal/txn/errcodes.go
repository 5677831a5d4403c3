package txn

import (
	"concord/internal/catalog"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
)

// Wire error codes for the sentinels that cross the workstation/server
// boundary. The rpc package cannot import the packages owning these
// sentinels (it sits below them), so the registration lives here, in the
// package that assembles the server-TM handlers whose errors travel.
//
// The codes are the wire contract: stable across releases, never reused.
// Allocations so far:
//
//	1–19    txn
//	20–39   lock
//	40–59   version
//	60–79   catalog
//	80–99   repo
//	100–119 rpc/repl (registered by the rpc package itself: 100 is
//	        rpc.ErrStaleEpoch, the failover fencing sentinel; 101 is
//	        rpc.ErrStaleDuplicate, the dedup memo's late-duplicate refusal)
func init() {
	rpc.RegisterWireError(1, ErrUnknownDOP)
	rpc.RegisterWireError(2, ErrNotStaged)
	rpc.RegisterWireError(3, ErrDeltaBase)
	rpc.RegisterWireError(4, ErrCheckinFailed)
	rpc.RegisterWireError(5, ErrNothingToCommit)
	rpc.RegisterWireError(6, ErrNoLease)

	rpc.RegisterWireError(20, lock.ErrDeadlock)
	rpc.RegisterWireError(21, lock.ErrTimeout)
	rpc.RegisterWireError(22, lock.ErrNotHeld)
	rpc.RegisterWireError(23, lock.ErrScopeDenied)
	rpc.RegisterWireError(24, lock.ErrScopeOwned)
	rpc.RegisterWireError(25, lock.ErrOwnerEvicted)

	rpc.RegisterWireError(40, version.ErrUnknownDOV)
	rpc.RegisterWireError(41, version.ErrDuplicateDOV)

	rpc.RegisterWireError(60, catalog.ErrUnknownDOT)

	rpc.RegisterWireError(80, repo.ErrDegraded)
	rpc.RegisterWireError(81, repo.ErrFollower)
}
