// Command tpbench is the repository benchmark. It runs one named
// workload against the program's public API for a fixed time, checks
// that the outputs are correct, and prints the metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// wrapper attached. With -trace 1 the run is split in two halves: an
// untraced half (the baseline for the tracing overhead) and a traced
// half whose seam wrappers (tap.go) and the program's own observability
// plane give the per-layer metrics; spans are written to
// <workdir>/trace-<workload>.json when the run ends.
//
// Workloads (README.md says why each exists; BENCHMARK.json lists the
// two that gate changes):
//
//	peak-tcp   3-site TCP loopback cluster, mem driver, closed loop with
//	           64 outstanding calls
//	deep-tcp   the same cluster, closed loop with 256 outstanding calls
//	open-tcp   the same cluster, open Poisson loop
//	open-disk  the same cluster on the disk driver, open loop
//	hot-local  one core.Runner, Method 3, closed loop with nproc callers
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// result line still prints, with correct=false), 2 when the run could
// not be set up (no result line). Linux only: the generator paces with
// nanosleep, the filesystem comes from statfs and the memory peak from
// /proc/self.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run by name.
type report map[string]metricVal

func (r report) set(name string, v float64, unit string) { r[name] = metricVal{Value: v, Unit: unit} }

// runResult is what a workload hands back to main.
type runResult struct {
	metrics   report
	attempted int
	failed    int
	// problems lists every failed output check; empty means correct.
	problems []string
	// info carries diagnostics that are not gated metrics (p99s, sample
	// counts, generator lateness); printed on a "# info" line.
	info map[string]any
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workdir  string
}

// warmup is run before every measured window and not measured: it
// opens the TCP connections, grows the queues' maps and lets the gob
// type caches fill.
const warmup = time.Second

// setupGap separates consecutive timed set-ups, so that setup_s, their
// median, samples several seconds of a machine shared with other
// tenants rather than a single burst of it.
const setupGap = 200 * time.Millisecond

func main() {
	var (
		o      options
		trace  int
		commit string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: peak-tcp | deep-tcp | open-tcp | open-disk | hot-local")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/tpbench-run", "scratch directory for run files")
	flag.StringVar(&commit, "commit", "unknown", "source revision, recorded with the machine facts")
	flag.Parse()
	o.traced = trace == 1
	correct, err := run(o, commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its result; it reports whether
// every output check passed.
func run(o options, commit string) (bool, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have peak-tcp, deep-tcp, open-tcp, open-disk, hot-local)", o.workload)
	}
	if o.seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return false, err
	}
	// A private run directory keeps concurrent or crashed runs apart.
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	fsync, err := fsyncP50(dir, 32)
	if err != nil {
		return false, err
	}
	facts := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "fs": fsName(dir),
		"fsync_us_p50": round(fsync, 1), "workload": o.workload, "seed": o.seed,
		"seconds": o.seconds, "trace": o.traced,
	}
	printLine("# machine", facts)

	res, err := wl(o, dir, fsync)
	if err != nil {
		return false, err
	}
	printLine("# info", res.info)
	for _, p := range res.problems {
		fmt.Println("# FAIL", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   report `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return len(res.problems) == 0, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, dir string, fsyncUS float64) (*runResult, error){
	"open-tcp":  func(o options, dir string, f float64) (*runResult, error) { return runCluster(o, openTCP, dir, f) },
	"peak-tcp":  func(o options, dir string, f float64) (*runResult, error) { return runCluster(o, peakTCP, dir, f) },
	"deep-tcp":  func(o options, dir string, f float64) (*runResult, error) { return runCluster(o, deepTCP, dir, f) },
	"open-disk": func(o options, dir string, f float64) (*runResult, error) { return runCluster(o, openDisk, dir, f) },
	"hot-local": runHotLocal,
}

// printLine prints a "# tag {json}" diagnostic line.
func printLine(tag string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Println(tag, string(data))
}

func round(v float64, digits int) float64 {
	p := 1.0
	for i := 0; i < digits; i++ {
		p *= 10
	}
	return float64(int64(v*p+0.5)) / p
}

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

// endToEnd fills the end-to-end metrics from a measured load phase. For
// an open loop init and settle run from each arrival's due time; for a
// closed loop from its issue (the two coincide there). Each latency
// percentile and the throughput are computed per sub-window and the
// median over the sub-windows is reported.
func endToEnd(lr *loadResult, setupS float64) report {
	var initNS, settleNS [windows][]int64
	var dueCommitted [windows]int
	for _, s := range lr.samples {
		k := window(s.due, lr.warm, lr.measure)
		if k < 0 || !s.committed {
			continue
		}
		dueCommitted[k]++
		initNS[k] = append(initNS[k], s.start-s.due+s.initiation)
		settleNS[k] = append(settleNS[k], s.end-s.due)
	}
	var i50, i90, s50, s90, tps []float64
	winS := float64(lr.measure) / windows / 1e9
	for k := 0; k < windows; k++ {
		// committed instances per second: for an open loop the committed
		// arrivals due in the sub-window, for a closed loop the calls
		// that returned committed in it.
		n := dueCommitted[k]
		if lr.offered == 0 {
			n = lr.completedIn[k]
		}
		tps = append(tps, float64(n)/winS)
		if len(initNS[k]) == 0 {
			continue
		}
		i50 = append(i50, float64(percentile(initNS[k], 50))/1e3)
		i90 = append(i90, float64(percentile(initNS[k], 90))/1e3)
		s50 = append(s50, float64(percentile(settleNS[k], 50))/1e6)
		s90 = append(s90, float64(percentile(settleNS[k], 90))/1e6)
	}
	m := report{}
	m.set("init_p50_us", median(i50), "us")
	m.set("init_p90_us", median(i90), "us")
	m.set("settle_p50_ms", median(s50), "ms")
	m.set("settle_p90_ms", median(s90), "ms")
	m.set("committed_tps", median(tps), "1/s")
	m.set("setup_s", setupS, "s")
	m.set("peak_rss_mb", lr.peakRSSMB, "MB")
	return m
}

// perTxn divides a count by the committed instances (0 when none).
func perTxn(n int64, committed int) float64 {
	if committed == 0 {
		return 0
	}
	return float64(n) / float64(committed)
}

// overhead fills the tracing-overhead ratios from the untraced and
// traced halves of a traced run.
func overhead(m, base, traced report) {
	if b := base["settle_p50_ms"].Value; b > 0 {
		m.set("obs.overhead_ratio", traced["settle_p50_ms"].Value/b, "ratio")
	}
	if b := base["committed_tps"].Value; b > 0 {
		m.set("obs.tps_ratio", traced["committed_tps"].Value/b, "ratio")
	}
}

// genLate fills the generator-lateness metrics (open loops only).
func genLate(m report, lr *loadResult) {
	if lr.offered == 0 {
		return
	}
	late := append([]int64(nil), lr.lateNS...)
	m.set("bench.gen_late_p50_us", float64(percentile(late, 50))/1e3, "us")
	m.set("bench.gen_late_p99_us", float64(percentile(late, 99))/1e3, "us")
}

// loadInfo summarises a load phase for the "# info" line.
func loadInfo(lr *loadResult) map[string]any {
	var initUS, settle, wait, call, late []int64
	for _, s := range lr.measured() {
		if s.committed {
			initUS = append(initUS, s.start-s.due+s.initiation)
			settle = append(settle, s.end-s.due)
			wait = append(wait, s.start-s.due)
			call = append(call, s.initiation)
		}
	}
	info := map[string]any{
		"attempted": lr.attempted, "committed": lr.committed, "rolled_back": lr.rolledBack,
		"failed": lr.failed, "latency_samples": len(initUS), "inflight_max": lr.inflightMax,
		"init_p99_us":        round(float64(percentile(initUS, 99))/1e3, 1),
		"settle_p99_ms":      round(float64(percentile(settle, 99))/1e6, 3),
		"due_to_call_p50_us": round(float64(percentile(wait, 50))/1e3, 1),
		"initiation_p50_us":  round(float64(percentile(call, 50))/1e3, 1),
	}
	if lr.offered > 0 {
		late = append(late, lr.lateNS...)
		info["offered_per_s"] = lr.offered
		info["gen_late_p50_us"] = round(float64(percentile(late, 50))/1e3, 1)
		info["gen_late_p99_us"] = round(float64(percentile(late, 99))/1e3, 1)
	}
	return info
}

// traceFile is where a traced run writes its spans.
func traceFile(o options) string {
	return filepath.Join(o.workdir, "trace-"+o.workload+".json")
}
