// Command mpirun launches any of the built-in applications on any
// registered backend — the front door for kicking the tires:
//
//	mpirun -np 8 -app linsolve -platform meiko -impl lowlatency -n 128
//	mpirun -np 4 -app particles -platform cluster -net eth
//	mpirun -np 8 -app matmul -platform cluster -transport unet
//
// With -coll, each forced algorithm is printed with how many calls it
// served, so a forced collective the application never calls shows as 0.
//
// Backends come from platform/registry; -platform/-impl/-transport
// resolve through registry.Run, whose typed errors list the registered
// backends (or algorithms, for -coll) on a typo instead of silently
// falling back to a default.
//
// Instead of -app, -workload drives a macro-workload pattern
// (internal/workload) and -record saves its event stream as a binary
// trace; -replay re-runs a saved trace and verifies the fresh timeline
// reproduces it event for event:
//
//	mpirun -workload halo -record t.bin
//	mpirun -replay t.bin
//	mpirun -replay t.bin -lanes 8 -parallel   # cross-kernel determinism
//
// A replay that diverges prints the first divergent event (rank, virtual
// time, op) and exits 1.
//
// Exit codes under fault injection (-kill): 0 means the job completed
// with its full membership, 2 means members died but the survivors
// recovered (revoke + shrink) and completed, and 1 means the job failed —
// a death the application did not survive, or any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/coll"
	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// appNames lists the launchable applications, for validation and usage.
var appNames = []string{"linsolve", "matmul", "particles", "ftshrink"}

func main() {
	log.SetFlags(0)
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole command: it parses args, runs the job, writes its report
// to stdout (diagnostics go to the log) and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mpirun", flag.ContinueOnError)
	np := fs.Int("np", 4, "number of ranks")
	app := fs.String("app", "linsolve", strings.Join(appNames, " | "))
	platform := fs.String("platform", "meiko", "meiko | cluster | mem")
	impl := fs.String("impl", "", "meiko implementation: lowlatency | mpich (default lowlatency)")
	transport := fs.String("transport", "", "cluster transport: tcp | udp | unet | shm (default tcp)")
	network := fs.String("net", "", "cluster network: atm | eth (default atm)")
	n := fs.Int("n", 0, "problem size (0 = per-app default)")
	seed := fs.Int64("seed", 1, "workload seed")
	lanes := fs.Int("lanes", 0, "run on the sharded kernel with this many lanes (0 = single-lane kernel)")
	parallel := fs.Bool("parallel", false, "with -lanes: execute epochs on pinned worker goroutines")
	collTune := fs.String("coll", "", `force collective algorithms, e.g. "bcast=pipelined,allreduce=rsag" (default auto-select)`)
	loss := fs.Float64("loss", 0, "cluster: per-frame loss probability (transport udp)")
	delay := fs.Duration("delay", 0, "cluster: fixed one-way latency added per frame")
	jitter := fs.Duration("jitter", 0, "cluster: extra uniform per-frame latency in [0, jitter) (transport udp)")
	reorder := fs.Float64("reorder", 0, "cluster: per-frame reordering probability (transport udp)")
	dup := fs.Float64("dup", 0, "cluster: per-frame duplication probability (transport udp)")
	dropnth := fs.Int("dropnth", 0, "cluster: deterministically drop every Nth frame of each (src, dst) link (transport udp)")
	partition := fs.String("partition", "", `cluster: partition schedule, e.g. "0-1@5ms:20ms;2-*" (A-B[@FROM:UNTIL], * = any host)`)
	faultseed := fs.Int64("faultseed", 0, "cluster: fault-injection RNG seed (0 = derive from -seed)")
	kill := fs.String("kill", "", `process-death schedule, e.g. "2@5ms;3@8ms" (RANK@T; any backend)`)
	wl := fs.String("workload", "", "run a macro-workload pattern instead of -app: "+strings.Join(workload.Names(), " | "))
	record := fs.String("record", "", "with -workload: write the recorded binary trace here")
	replay := fs.String("replay", "", "replay a recorded trace (world rebuilt from its header; -lanes/-parallel may override the kernel)")
	steps := fs.Int("steps", 0, "workload iterations per rank (0 = default 20)")
	wbytes := fs.Int("bytes", 0, "workload per-message payload bytes (0 = default 1024)")
	rate := fs.Float64("rate", 0, "rpc workload: mean think rate, requests/sec per client (0 = default 2000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}

	if *replay != "" {
		return replayTrace(stdout, *replay, *lanes, *parallel)
	}

	if !slices.Contains(appNames, *app) && *wl == "" {
		log.Printf("mpirun: unknown app %q\napps: %s", *app, strings.Join(appNames, ", "))
		return 1
	}

	spec := registry.Spec{
		Platform:   *platform,
		Impl:       *impl,
		Transport:  *transport,
		Network:    *network,
		Ranks:      *np,
		Lanes:      *lanes,
		Parallel:   *parallel,
		Seed:       *seed,
		Coll:       *collTune,
		LossRate:   *loss,
		Delay:      *delay,
		Jitter:     *jitter,
		Reorder:    *reorder,
		Duplicate:  *dup,
		DropEveryN: *dropnth,
		Partition:  *partition,
		FaultSeed:  *faultseed,
		Kills:      *kill,
		Workload:   *wl,
	}

	if *wl != "" {
		cfg := workload.Config{
			Pattern: *wl, Backend: spec.Key(), Ranks: *np,
			Lanes: *lanes, Seed: *seed,
			Steps: *steps, Bytes: *wbytes, Rate: *rate,
		}
		return runWorkload(stdout, spec, cfg, *record)
	}

	secPerFlop := apps.MeikoSecPerFlop
	if *platform == "cluster" {
		secPerFlop = apps.SGISecPerFlop
	}

	// Survival bookkeeping for the exit-code contract: bodies run as
	// concurrent procs, so the tallies take a lock (the parallel kernel
	// really does run them on multiple OS threads).
	var (
		ftMu     sync.Mutex
		ftDied   int
		ftShrunk int
	)

	body := func(c *mpi.Comm) error {
		switch *app {
		case "linsolve":
			size := *n
			if size == 0 {
				size = 96
			}
			res, err := apps.Linsolve(c, apps.LinsolveConfig{N: size, SecPerFlop: secPerFlop, Seed: *seed})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(stdout, "linsolve N=%d: %.4fs virtual, residual %.2e\n", size, res.Elapsed.Seconds(), res.Residual)
			}
		case "matmul":
			size := *n
			if size == 0 {
				size = 64
			}
			res, err := apps.MatMul(c, apps.MatMulConfig{N: size, SecPerFlop: secPerFlop, Seed: *seed})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(stdout, "matmul N=%d: %.4fs virtual, max error %.2e\n", size, res.Elapsed.Seconds(), res.MaxError)
			}
		case "particles":
			size := *n
			if size == 0 {
				size = 24
				for size%*np != 0 {
					size += 24
				}
			}
			res, err := apps.Particles(c, apps.ParticlesConfig{N: size, SecPerFlop: secPerFlop, Seed: *seed})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(stdout, "particles N=%d: %.1fus virtual\n", size, float64(res.Elapsed)/1e3)
			}
		case "ftshrink":
			res, err := apps.FTShrink(c, apps.FTShrinkConfig{Compute: 100 * time.Microsecond})
			if err != nil {
				return err
			}
			ftMu.Lock()
			if res.Died {
				ftDied++
			}
			if res.Shrunk {
				ftShrunk++
			}
			ftMu.Unlock()
			if !res.Died && res.NewRank == 0 {
				fmt.Fprintf(stdout, "ftshrink: sum %d over %d survivors (shrunk=%v), %.1fus virtual\n",
					res.Sum, res.Survivors, res.Shrunk, float64(res.Elapsed.Nanoseconds())/1e3)
			}
		}
		return nil
	}

	rep, err := registry.Run(spec, body)
	if err != nil {
		// registry.Build's typed errors carry the registered backend and
		// algorithm listings, so a typo prints them instead of a usage dump.
		// A death the application did not survive lands here too: the
		// victim's (or a stuck survivor's) body error is world-fatal.
		log.Printf("mpirun: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "job: %d ranks on %s, finished at virtual t=%v (%d sends, %d receives)\n",
		*np, spec.Key(), rep.MaxRankElapsed, rep.Acct.Count["send"], rep.Acct.Count["recv"])
	printForced(stdout, spec.Coll, rep)
	if ftDied > 0 {
		fmt.Fprintf(stdout, "faults: %d rank(s) killed, %d survivor(s) recovered by shrink\n", ftDied, ftShrunk)
		return 2 // survived-with-shrink: degraded success, not failure
	}
	return 0
}

// runWorkload records one workload run, prints its SLO summary, and
// optionally saves the binary trace. Returns the process exit code.
func runWorkload(stdout io.Writer, spec registry.Spec, cfg workload.Config, recordPath string) int {
	w, err := registry.Build(spec)
	if err != nil {
		log.Printf("mpirun: %v", err)
		return 1
	}
	res, err := workload.Run(w, cfg)
	if err != nil {
		log.Printf("mpirun: workload: %v", err)
		return 1
	}
	printSummary(stdout, spec.Key(), res)
	printForced(stdout, spec.Coll, res.Report)
	if recordPath != "" {
		data := res.Trace.Marshal()
		if err := os.WriteFile(recordPath, data, 0o644); err != nil {
			log.Printf("mpirun: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %d events (%d bytes) to %s\n", len(res.Trace.Events), len(data), recordPath)
	}
	return 0
}

// replayTrace re-runs a saved trace on a world rebuilt from its header
// (kernel overridable via -lanes/-parallel) and verifies determinism.
// -parallel applies to the recorded lane count when -lanes is not given.
func replayTrace(stdout io.Writer, path string, lanes int, parallel bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Printf("mpirun: %v", err)
		return 1
	}
	tr, err := workload.Unmarshal(data)
	if err != nil {
		log.Printf("mpirun: %s: %v", path, err)
		return 1
	}
	spec := registry.SpecFor(tr.Cfg.Backend)
	spec.Ranks = tr.Cfg.Ranks
	spec.Seed = tr.Cfg.Seed
	spec.Workload = tr.Cfg.Pattern
	spec.Lanes, spec.Parallel = tr.Cfg.Lanes, parallel
	if lanes > 0 {
		spec.Lanes = lanes
	}
	w, err := registry.Build(spec)
	if err != nil {
		log.Printf("mpirun: %v", err)
		return 1
	}
	res, err := workload.Replay(w, tr)
	if err != nil {
		log.Printf("mpirun: %v", err)
		return 1
	}
	printSummary(stdout, spec.Key(), res)
	fmt.Fprintf(stdout, "replay ok: %d events reproduced bit-identically\n", len(tr.Events))
	return 0
}

func printSummary(stdout io.Writer, backend string, res *workload.Result) {
	s := res.Summary
	fmt.Fprintf(stdout, "workload %s on %s: %d SLO events, elapsed %.1fus virtual\n",
		s.Pattern, backend, s.Events, s.ElapsedUS)
	fmt.Fprintf(stdout, "latency p50/p99/p999 %.1f/%.1f/%.1f us; throughput %.0f ops/s, %.2f MB/s\n",
		s.P50US, s.P99US, s.P999US, s.OpsPerSec, s.MBPerSec)
}

// printForced reports how many calls each algorithm forced by -coll served.
func printForced(stdout io.Writer, tuning string, rep *mpi.Report) {
	forced, _ := coll.ParseTuning(tuning) // Build has already accepted it
	for _, op := range slices.Sorted(maps.Keys(forced)) {
		fmt.Fprintf(stdout, "coll %s=%s: %d calls\n", op, forced[op], rep.Acct.Count["coll."+op+"."+forced[op]])
	}
}
