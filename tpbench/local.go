package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/storage"
	"asynctp/internal/workload"
)

// hot-local runs one core.Runner under Method 3 (ESR-chopping under
// divergence control) on a hot-spotted bank. It bypasses site, queue,
// transport and the storage driver: all time goes through core, chop,
// lock, dc, txn and the store.

const (
	// bankEpsilon is every program's ε: transfers export up to it,
	// audits import up to it, and no audit may deviate by more.
	bankEpsilon = 8000
	// bankDeclared is the declared instance count per program type. It
	// is part of the workload: NewRunner's chopping analysis scales with
	// it, and so does setup_s.
	bankDeclared = 1000
	// bankRSSAfter is the committed call at which the resident-set peak
	// is read: about a third of a 40 s run's calls.
	bankRSSAfter = 2000000
	// runnerSetups is how many NewRunner calls, setupGap apart, setup_s
	// is the median of.
	runnerSetups = 15
	// bankTableSeed fixes the bank's program table. With only 8 transfer
	// types, how many draw the hot account is Binomial(8, ½), and that
	// alone moved init_p90_us by 40% between seeds; a fixed table keeps
	// the workload one workload, and -seed drives the request stream.
	bankTableSeed = 1
)

func bank() (*workload.Workload, error) {
	return workload.NewBank(workload.BankConfig{
		Branches: 4, AccountsPerBranch: 8, InitialBalance: 1 << 30, TransferAmount: 100,
		TransferTypes: 8, TransferCount: bankDeclared, AuditCount: bankDeclared,
		Epsilon: bankEpsilon, IntraBranch: true, HotBias: 0.5, Seed: bankTableSeed,
	})
}

// localPhase is one measured load phase on a runner.
type localPhase struct {
	lr       *loadResult
	rt0, rt1 rtSnap
	retries  atomic.Int64
	pieces   atomic.Int64 // pieces committed across committed instances
	devMax   atomic.Int64
	problems []string
}

// newRunner builds a Method 3 runner over a fresh store seeded from w.
func newRunner(w *workload.Workload, plane *obs.Plane) (*core.Runner, *storage.Store, float64, error) {
	cfg := workload.ConfigFor(w, core.Method3ESRChopDC, core.Static, false)
	cfg.Obs = plane
	start := time.Now()
	r, err := core.NewRunner(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("NewRunner: %w", err)
	}
	return r, cfg.Store, time.Since(start).Seconds(), nil
}

// driveLocal runs the closed loop with nproc callers and audits the
// result: no errors, every audit within ε, the bank total conserved.
func driveLocal(w *workload.Workload, r *core.Runner, store *storage.Store, seed int64,
	measure time.Duration, spans *spanLog) *localPhase {
	ph := &localPhase{}
	var devMu sync.Mutex
	var overEps []string
	submit := func(ctx context.Context, ti int) (outcome, error) {
		start := time.Now()
		res, err := r.Submit(ctx, ti)
		took := time.Since(start)
		if err != nil {
			return outcome{}, err
		}
		if res.Committed {
			ph.retries.Add(int64(res.Retries))
			ph.pieces.Add(int64(len(res.Outcomes)))
			if want, ok := w.Expected[ti]; ok {
				dev := int64(metric.Distance(res.SumReads(), want))
				for {
					cur := ph.devMax.Load()
					if dev <= cur || ph.devMax.CompareAndSwap(cur, dev) {
						break
					}
				}
				if dev > bankEpsilon {
					devMu.Lock()
					overEps = append(overEps, fmt.Sprintf("%s deviated %d > ε %d", res.Program, dev, bankEpsilon))
					devMu.Unlock()
				}
			}
		}
		// Runner.Submit returns once every piece has finished: the
		// caller may proceed only then, so initiation is the whole call.
		return outcome{initiation: took, committed: res.Committed, rolledBack: res.RolledBack}, nil
	}
	ph.rt0 = readRuntime()
	ph.lr = closedLoop(submit, len(w.Programs), runtime.NumCPU(), warmup, measure, seed, bankRSSAfter,
		spans.submitHook("core", "Runner.Submit"))
	ph.rt1 = readRuntime()
	ph.problems = append(ph.problems, loadChecks(ph.lr)...)
	if len(overEps) > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("ε bound: %d audits over ε, first: %s", len(overEps), overEps[0]))
	}
	var total, seeded metric.Value
	for _, v := range w.Initial {
		seeded += v
	}
	for _, k := range store.Keys() {
		if !strings.HasPrefix(string(k), "__") {
			total += store.Get(k)
		}
	}
	if total != seeded {
		ph.problems = append(ph.problems, fmt.Sprintf("conservation: accounts sum to %d, seeded %d", total, seeded))
	}
	return ph
}

// runHotLocal runs the hot-local workload.
func runHotLocal(o options, _ string, fsyncUS float64) (*runResult, error) {
	w, err := bank()
	if err != nil {
		return nil, err
	}
	measure := time.Duration(o.seconds) * time.Second
	if o.traced {
		measure /= 2
	}
	var (
		setups []float64
		r      *core.Runner
		store  *storage.Store
	)
	for k := 0; k < runnerSetups; k++ {
		var took float64
		if r, store, took, err = newRunner(w, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if k < runnerSetups-1 {
			time.Sleep(setupGap)
		}
	}
	setupS := median(setups)
	base := driveLocal(w, r, store, o.seed, measure, nil)
	res := &runResult{problems: base.problems, info: loadInfo(base.lr)}
	res.info["query_dev_max"] = base.devMax.Load()
	res.attempted, res.failed = base.lr.attempted, base.lr.failed
	baseE2E := endToEnd(base.lr, setupS)
	if !o.traced {
		res.metrics = baseE2E
		return res, nil
	}

	spans := newSpanLog(200000)
	plane := obs.NewPlane(nil, nil, obs.NewRegistry())
	tr, tstore, _, err := newRunner(w, plane)
	if err != nil {
		return nil, err
	}
	ph := driveLocal(w, tr, tstore, o.seed, measure, spans)
	res.problems = append(res.problems, ph.problems...)
	res.attempted += ph.lr.attempted
	res.failed += ph.lr.failed

	m := report{}
	n := ph.lr.committed
	ls, ds := tr.LockStats(), tr.DCStats()
	m.set("lock.blocks_per_txn", perTxn(int64(ls.Blocks), n), "1/txn")
	m.set("lock.fuzzy_grants_per_txn", perTxn(int64(ls.FuzzyGrants), n), "1/txn")
	m.set("lock.deadlocks", float64(ls.Deadlocks), "count")
	m.set("dc.absorbed_per_txn", perTxn(int64(ds.Absorbed), n), "1/txn")
	m.set("dc.refused_per_txn", perTxn(int64(ds.Refused), n), "1/txn")
	m.set("core.retries_per_txn", perTxn(ph.retries.Load(), n), "1/txn")
	if p := ph.pieces.Load(); p > 0 {
		m.set("core.useful_ratio", float64(p)/float64(p+ph.retries.Load()), "ratio")
	}
	m.set("core.new_runner_s", setupS, "s")
	m.set("core.query_dev_max", float64(ph.devMax.Load()), "count")
	m.set("storage.fsync_us_p50", fsyncUS, "us")
	runtimeLayer(m, ph.rt0, ph.rt1, n, spans.goroutines)
	overhead(m, baseE2E, endToEnd(ph.lr, 0))
	res.metrics = m
	res.info["traced"] = loadInfo(ph.lr)
	if err := spans.write(traceFile(o), o.workload, o.seed); err != nil {
		return nil, err
	}
	return res, nil
}
