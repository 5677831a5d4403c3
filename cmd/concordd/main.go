// Command concordd runs a stand-alone CONCORD server site over TCP: the
// design data repository, server-TM, cooperation manager and 2PC participant
// (server.Assemble) behind the workstation/server protocol of Sect. 5.1.
// Workstations connect with the txn.ClientTM over the rpc.TCP transport.
//
// Replication (DESIGN.md §5.4): a second concordd started with -standby-of
// follows a primary through WAL shipping. It announces itself to the primary,
// which begins replicating (synchronously with -sync-repl, trailing with a
// -repl-lag-max window otherwise), and refuses client traffic until an
// epoch-fenced promotion makes it the primary: a workstation's failover
// promotes through RPC, operators use the one-shot -promote verb. Both roles
// log a periodic health line with role, fencing epoch and shipping lag.
//
// Workstations must heartbeat (ClientTM.StartHeartbeat): the lease reaper
// (DESIGN.md §5.3) reclaims DOPs and locks of a session silent for 10 s.
//
// The server checkpoints (DESIGN.md §3.8): whenever the repository log has
// grown repo.DefaultCheckpointLogBytes (8 MiB) past its low-water mark, the
// daemon — primary or standby alike — writes what changed since the last
// snapshot to the chain under -data and drops the covered log prefix, so a
// restart loads the chain and replays at most that much log.
//
// Usage:
//
//	concordd -addr :7070 -data /var/lib/concord
//	concordd -addr :7071 -data /var/lib/concord-standby -standby-of host-a:7070
//	concordd -promote -addr host-b:7071
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"concord/internal/binenc"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/server"
	"concord/internal/vlsi"
)

// methodAttach is the standby's self-announcement to its primary: the payload
// names the address the standby serves the replication protocol at, and the
// primary (re)starts its WAL shipper towards it. Idempotent, so the standby
// repeats it and a restarted primary resumes shipping without an operator.
const methodAttach = "concordd/attach"

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	data := flag.String("data", "concord-data", "durable data directory")
	standbyOf := flag.String("standby-of", "", "run as warm standby of the primary at this address: follow its WAL, refuse client traffic until promoted")
	syncRepl := flag.Bool("sync-repl", false, "primary: ship synchronously — commits wait for the standby's acknowledgement (repl.SenderOptions.Sync)")
	replLagMax := flag.Int64("repl-lag-max", 0, "primary: trailing-mode lag bound in bytes before batches ship inline again; 0 = unbounded (repl.SenderOptions.LagMax)")
	healthEvery := flag.Duration("health-every", 30*time.Second, "interval of the role/epoch/lag health log line; 0 disables")
	promote := flag.Bool("promote", false, "one-shot: ask the standby at -addr to take over as primary, print the new epoch and exit")
	flag.Parse()

	trans := rpc.NewTCP()
	defer trans.Close()
	if *promote {
		epoch, err := repl.RequestPromote(newClient(trans, "promote"), *addr, 0)
		if err != nil {
			log.Fatalf("promote %s: %v", *addr, err)
		}
		fmt.Printf("concordd: %s promoted to primary at epoch %d\n", *addr, epoch)
		return
	}
	if err := run(trans, *addr, *data, *standbyOf, repl.SenderOptions{Sync: *syncRepl, LagMax: *replLagMax}, *healthEvery); err != nil {
		log.Fatal(err)
	}
}

// incarnation names this process: the pid alone repeats across restarts (pid 1
// in every container), so the start time is part of it.
var incarnation = fmt.Sprintf("%d.%x", os.Getpid(), time.Now().UnixNano())

// newClient returns an rpc client whose ID is unique to this incarnation, so
// peers never mistake a restarted daemon's requests for replays, nor refuse
// them as stale duplicates of its predecessor's (DESIGN.md §5.2).
func newClient(trans *rpc.TCP, role string) *rpc.Client {
	return rpc.NewClient(trans, role+"@"+incarnation)
}

// run opens the durable state under data and serves it at addr until
// SIGINT/SIGTERM: as the primary, or — with standbyOf — as a warm standby that
// follows that primary until promoted.
func run(trans *rpc.TCP, addr, data, standbyOf string, ship repl.SenderOptions, healthEvery time.Duration) error {
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: data, Sync: true, Follower: standbyOf != ""})
	if err != nil {
		return err
	}
	defer r.Close()
	r.StartCheckpointer(repo.DefaultCheckpointLogBytes)

	banner := "serving"
	var handler rpc.DeadlineHandler
	var health func() string
	var recv *repl.Receiver
	if standbyOf != "" {
		banner = "standby of " + standbyOf + " serving replication"
		sb := server.NewStandby(r, newClient(trans, "standby-cb"), server.Options{})
		defer sb.Close()
		handler, recv = sb.Handler(), sb.Receiver()
		health = func() string {
			role := "standby"
			if recv.Promoted() {
				role = "primary"
			}
			st := recv.Stats()
			return fmt.Sprintf("role=%s epoch=%d mode=%s applied=%drec/%dB", role, r.Epoch(), r.Health().Mode, st.Records, st.Bytes)
		}
	} else {
		site, err := server.Assemble(r, newClient(trans, "concordd-cb"), server.Options{})
		if err != nil {
			return err
		}
		defer site.Close()
		replClient := newClient(trans, "repl")
		site.Handle(methodAttach, func(_ string, payload []byte) ([]byte, error) {
			rd := binenc.NewReader(payload)
			standby := rd.Str()
			if err := rd.Err(); err != nil {
				return nil, fmt.Errorf("concordd: bad attach payload: %w", err)
			}
			if site.ReplicateTo(replClient, standby, ship) {
				log.Printf("concordd: replicating to standby at %s (sync=%v, lag-max=%d)", standby, ship.Sync, ship.LagMax)
			}
			return nil, nil
		})
		handler = site.Handler()
		health = func() string {
			line := fmt.Sprintf("role=primary epoch=%d mode=%s", r.Epoch(), r.Health().Mode)
			if st := site.SenderStats(); st.Mode != 0 {
				line += fmt.Sprintf(" repl=%s lag=%drec/%dB degrades=%d", st.Mode, st.LagRecords, st.LagBytes, st.Degrades)
			}
			return line
		}
	}
	bound, err := trans.ListenDeadline(addr, handler)
	if err != nil {
		return err
	}
	log.Printf("concordd: %s on %s, data in %s (%d DOVs recovered, epoch %d)", banner, bound, data, r.DOVCount(), r.Epoch())
	if recv != nil {
		stop := make(chan struct{})
		defer close(stop)
		go attachLoop(newClient(trans, "attach"), standbyOf, bound, recv, r.Epoch, stop)
	}
	serveUntilSignal(healthEvery, health)
	return nil
}

// attachLoop announces the standby's replication address to the primary until
// shutdown or promotion, which it logs; failures are logged once per outage,
// not once per retry.
func attachLoop(client *rpc.Client, primary, self string, recv *repl.Receiver, epoch func() uint64, stop <-chan struct{}) {
	w := binenc.GetWriter(64)
	w.Str(self)
	payload := w.Detach()
	attached := false
	for !recv.Promoted() {
		_, err := client.Call(primary, methodAttach, payload)
		if err != nil && attached {
			log.Printf("concordd: primary %s unreachable: %v", primary, err)
		} else if err == nil && !attached {
			log.Printf("concordd: attached to primary %s", primary)
		}
		attached = err == nil
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Second):
		}
	}
	log.Printf("concordd: promoted to primary at epoch %d", epoch())
}

// serveUntilSignal blocks until SIGINT/SIGTERM, logging the role/epoch/lag
// health line every interval (0 disables) and once immediately so the startup
// state is on record.
func serveUntilSignal(every time.Duration, line func() string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if every > 0 {
		log.Printf("concordd: health %s", line())
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sig:
			log.Println("concordd: shutting down")
			return
		case <-tick:
			log.Printf("concordd: health %s", line())
		}
	}
}
