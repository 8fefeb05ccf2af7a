package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage/driver"
	"asynctp/internal/transport"
	"asynctp/internal/workload"
)

// clusterSpec shapes one cluster workload. Every cluster workload runs
// three sites in this process over real TCP loopback (transport.Net),
// with the program's site.Config defaults (RetransmitEvery included).
type clusterSpec struct {
	driver string  // storage driver: "mem" or "disk"
	rate   float64 // open-loop arrivals per second; 0 means closed loop
	window int     // closed-loop outstanding submissions
	// rssAfter is the committed call at which a closed loop reads the
	// resident-set peak: about a third of a 40 s run's calls.
	rssAfter int64
	// tableSeed seeds the program table; 0 draws it from -seed.
	tableSeed int64
}

// clusterSetups is how many set-ups setup_s is the median of: one takes
// a few milliseconds, so a single one would mostly time the scheduler.
// They are setupGap apart.
const clusterSetups = 25

// The open loops run by name but are not listed in BENCHMARK.json: their
// latency tails drift too far between runs to gate on (see README.md).
var (
	// openTCP offers about 15% of peak-tcp's capacity on a 2-CPU box.
	openTCP = clusterSpec{driver: "mem", rate: 800}
	// peakTCP keeps a fixed window outstanding: CPU-bound.
	peakTCP = clusterSpec{driver: "mem", window: 64, rssAfter: 100000, tableSeed: ycsbTableSeed}
	// deepTCP keeps four times peak-tcp's window outstanding: as deep
	// as the queues get, the per-frame queue-image snapshots and the
	// frames themselves grow with them.
	deepTCP = clusterSpec{driver: "mem", window: 256, rssAfter: 100000, tableSeed: ycsbTableSeed}
	// openDisk offers about 30% of the disk driver's own capacity.
	openDisk = clusterSpec{driver: "disk", rate: 250}
)

var clusterSites = []simnet.SiteID{"NY", "LA", "CHI"}

// diskSyncEvery is the disk driver's group-commit window, as in the
// chaos and kill -9 harnesses.
const diskSyncEvery = 200 * time.Microsecond

// ycsbTableSeed fixes the program table of the gated closed loops.
// Which keys and sites 64 program types draw moved the throughput of a
// 4-call closed loop by 40% between seeds (1.8k to 2.75k/s); a fixed
// table keeps a workload one workload, and -seed drives the request
// stream and the sites' seeds. The open loops still draw their table
// from -seed: open-disk collapsed on some of those tables.
const ycsbTableSeed = 1

// ycsb builds the shared cluster workload.
func ycsb(tableSeed int64) (*workload.Workload, error) {
	return workload.NewYCSB(workload.YCSBConfig{
		Records: 2000, Sites: clusterSites, Theta: 0.9, ReadFraction: 0.25,
		ProgramTypes: 64, ReadSpan: 4, TransferAmount: 5, InitialBalance: 1000,
		Epsilon: 1e6, Seed: tableSeed,
	})
}

// clusterRig is one built cluster plus the taps of a traced run.
type clusterRig struct {
	c    *site.Cluster
	net  simnet.Net // the bare transport (its Stats), under any tap
	tap  *netTap
	stor *storageTap
	reg  *obs.Registry
	dir  string
}

// buildCluster runs NewCluster + RegisterPrograms (the timed set-up) on
// a fresh TCP transport and, for the disk driver, a fresh directory.
func buildCluster(spec clusterSpec, w *workload.Workload, seed int64, dir string,
	spans *spanLog) (rig *clusterRig, newS, regS float64, err error) {
	rig = &clusterRig{dir: dir}
	listen := make(map[simnet.SiteID]string, len(clusterSites))
	for _, id := range clusterSites {
		listen[id] = "127.0.0.1:0"
	}
	start := time.Now()
	tn := transport.New(transport.Config{Listen: listen, Seed: seed})
	rig.net = tn
	cfg := site.Config{
		Strategy:          site.ChoppedQueues,
		Placement:         workload.YCSBPlacement,
		Initial:           workload.SplitInitial(w.Initial, workload.YCSBPlacement),
		AllowCompensation: true,
		Seed:              seed,
		Net:               tn,
	}
	var params driver.Params
	if spec.driver == "disk" {
		params = driver.Params{Dir: dir, SyncEvery: diskSyncEvery}
	}
	if spans != nil {
		rig.reg = obs.NewRegistry()
		plane := obs.NewPlane(nil, nil, rig.reg)
		rig.tap = newNetTap(tn, spans, 16)
		rig.stor = &storageTap{spans: spans, next: plane.StorageObserver()}
		params.Obs = rig.stor
		cfg.Net = rig.tap
		cfg.Obs = plane
	}
	drv, err := driver.New(spec.driver, params)
	if err != nil {
		tn.Close()
		return nil, 0, 0, err
	}
	if rig.stor != nil {
		drv = tapDriver{Driver: drv, tap: rig.stor}
	}
	cfg.Storage = drv
	c, err := site.NewCluster(cfg)
	if err != nil {
		cfg.Net.Close()
		return nil, 0, 0, fmt.Errorf("NewCluster: %w", err)
	}
	built := time.Now()
	if err := c.RegisterPrograms(w.Programs); err != nil {
		c.Close()
		return nil, 0, 0, fmt.Errorf("RegisterPrograms: %w", err)
	}
	done := time.Now()
	rig.c = c
	return rig, built.Sub(start).Seconds(), done.Sub(built).Seconds(), nil
}

// setupCluster times clusterSetups set-ups (closing all but the last)
// and returns the last cluster with the median times.
func setupCluster(spec clusterSpec, w *workload.Workload, seed int64, base string) (
	rig *clusterRig, setupS, newS, regS float64, err error) {
	var total, news, regs []float64
	for k := 0; k < clusterSetups; k++ {
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", k))
		r, n, g, err := buildCluster(spec, w, seed, dir, nil)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		total, news, regs = append(total, n+g), append(news, n), append(regs, g)
		if k == clusterSetups-1 {
			rig = r
			break
		}
		r.c.Close()
		os.RemoveAll(dir)
		time.Sleep(setupGap)
	}
	return rig, median(total), median(news), median(regs), nil
}

// clusterPhase is one measured load phase on a built cluster.
type clusterPhase struct {
	lr        *loadResult
	rt0, rt1  rtSnap
	problems  []string
	diskBytes int64
}

// drive runs the load against rig, then quiesces and audits it; the
// caller closes the cluster.
func drive(spec clusterSpec, rig *clusterRig, w *workload.Workload, seed int64,
	measure time.Duration, spans *spanLog) *clusterPhase {
	c := rig.c
	submit := func(ctx context.Context, ti int) (outcome, error) {
		res, err := c.Submit(ctx, ti)
		if err != nil {
			return outcome{}, err
		}
		return outcome{initiation: res.Initiation, committed: res.Committed, rolledBack: res.RolledBack}, nil
	}
	ph := &clusterPhase{rt0: readRuntime()}
	hook := spans.submitHook("site", "Cluster.Submit")
	if spec.rate > 0 {
		ph.lr = openLoop(submit, len(w.Programs), spec.rate, warmup, measure, seed, hook)
	} else {
		ph.lr = closedLoop(submit, len(w.Programs), spec.window, warmup, measure, seed, spec.rssAfter, hook)
	}
	ph.rt1 = readRuntime()
	ph.problems = append(ph.problems, loadChecks(ph.lr)...)
	total, err := quiesceAndSum(c)
	switch {
	case err != nil:
		ph.problems = append(ph.problems, err.Error())
	case total != w.Total():
		ph.problems = append(ph.problems,
			fmt.Sprintf("conservation: records sum to %d after quiesce, seeded %d", total, w.Total()))
	}
	if spec.driver == "disk" {
		ph.diskBytes = dirBytes(rig.dir)
	}
	return ph
}

// loadChecks are the output checks every load phase must pass: every
// started submission settled, and an open loop kept up with its offered
// rate with bounded in-flight work (an over-capacity rate is rejected,
// not reported).
func loadChecks(lr *loadResult) []string {
	var out []string
	if lr.failed > 0 {
		out = append(out, fmt.Sprintf("%d of %d submissions errored or timed out", lr.failed, lr.attempted))
	}
	if lr.rssErr != nil {
		out = append(out, fmt.Sprintf("peak RSS: cannot reset the high-water mark: %v", lr.rssErr))
	}
	if lr.unsettled > 0 {
		out = append(out, fmt.Sprintf("%d submissions returned neither committed nor rolled back", lr.unsettled))
	}
	if lr.offered > 0 {
		secs := float64(lr.measure) / 1e9
		if got := float64(lr.completed) / secs; got < 0.9*lr.offered {
			out = append(out, fmt.Sprintf("backlog: committed %.0f/s in the window against %.0f/s offered", got, lr.offered))
		}
		if limit := int64(lr.offered); lr.inflightMax > limit {
			out = append(out, fmt.Sprintf("backlog: %d submissions in flight, more than one second of arrivals (%d)", lr.inflightMax, limit))
		}
	}
	return out
}

// quiesceAndSum waits until every site's queues are drained on three
// consecutive polls, then sums every record (skipping "__" markers).
func quiesceAndSum(c *site.Cluster) (metric.Value, error) {
	deadline := time.Now().Add(30 * time.Second)
	for stable := 0; stable < 3; {
		idle := true
		for _, id := range clusterSites {
			if !c.Site(id).QueuesIdle() {
				idle = false
			}
		}
		if idle {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("quiesce: queues still busy 30s after the load stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var total metric.Value
	for _, id := range clusterSites {
		st := c.Site(id).Store
		for _, k := range st.Keys() {
			if !strings.HasPrefix(string(k), "__") {
				total += st.Get(k)
			}
		}
	}
	return total, nil
}

// runCluster runs one cluster workload.
func runCluster(o options, spec clusterSpec, dir string, fsyncUS float64) (*runResult, error) {
	table := spec.tableSeed
	if table == 0 {
		table = o.seed
	}
	w, err := ycsb(table)
	if err != nil {
		return nil, err
	}
	measure := time.Duration(o.seconds) * time.Second
	if o.traced {
		measure /= 2
	}
	rig, setupS, newS, regS, err := setupCluster(spec, w, o.seed, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	base := drive(spec, rig, w, o.seed, measure, nil)
	rig.c.Close()
	res := &runResult{problems: base.problems, info: loadInfo(base.lr)}
	res.attempted, res.failed = base.lr.attempted, base.lr.failed
	baseE2E := endToEnd(base.lr, setupS)
	if !o.traced {
		res.metrics = baseE2E
		return res, nil
	}

	spans := newSpanLog(200000)
	trig, _, _, err := buildCluster(spec, w, o.seed, filepath.Join(dir, "traced"), spans)
	if err != nil {
		return nil, err
	}
	tr := drive(spec, trig, w, o.seed, measure, spans)
	dropped := trig.net.Stats().Dropped
	trig.c.Close()
	res.problems = append(res.problems, tr.problems...)
	res.attempted += tr.lr.attempted
	res.failed += tr.lr.failed

	m := report{}
	clusterLayers(m, spec.driver == "disk", trig, tr, newS, regS, fsyncUS, dropped, spans.goroutines)
	overhead(m, baseE2E, endToEnd(tr.lr, 0))
	genLate(m, tr.lr)
	res.problems = append(res.problems, crossCheck(trig)...)
	res.metrics = m
	res.info["traced"] = loadInfo(tr.lr)
	if err := spans.write(traceFile(o), o.workload, o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// clusterLayers fills the per-layer metrics of a traced cluster phase;
// a metric of a layer the workload does not reach is left out.
func clusterLayers(m report, disk bool, rig *clusterRig, ph *clusterPhase, newS, regS, fsyncUS float64,
	dropped uint64, goroutines int64) {
	n := ph.lr.committed // warm-up included: the taps count the whole phase
	var initNS, callNS []int64
	for _, s := range ph.lr.samples {
		if s.committed {
			initNS = append(initNS, s.initiation)
			callNS = append(callNS, s.end-s.start)
		}
	}
	m.set("site.init_call_p50_us", float64(percentile(initNS, 50))/1e3, "us")
	m.set("site.settle_p99_ms", float64(percentile(callNS, 99))/1e6, "ms")
	m.set("site.inflight_max", float64(ph.lr.inflightMax), "count")
	m.set("site.new_cluster_s", newS, "s")
	m.set("site.register_s", regS, "s")

	wc := rig.tap.counts()
	m.set("queue.msgs_per_txn", perTxn(wc.Distinct, n), "msg/txn")
	if wc.EnqFrames > 0 {
		m.set("queue.msgs_per_frame", float64(wc.Msgs)/float64(wc.EnqFrames), "msg/frame")
	}
	m.set("queue.frames_per_txn", perTxn(wc.Frames, n), "frame/txn")
	m.set("queue.ack_frames_per_txn", perTxn(wc.AckFrames, n), "frame/txn")
	if wc.Msgs > 0 {
		m.set("queue.resend_ratio", float64(wc.Resends)/float64(wc.Msgs), "ratio")
	}
	hops := rig.tap.hops()
	m.set("queue.hop_p50_us", float64(percentile(hops, 50))/1e3, "us")
	m.set("queue.hop_p99_us", float64(percentile(hops, 99))/1e3, "us")

	if wc.Frames > 0 {
		m.set("transport.send_us_per_frame", float64(wc.SendNS)/float64(wc.Frames)/1e3, "us")
	}
	enc, dec, bytes := codecTimes(rig.tap.samples())
	m.set("transport.encode_us_per_frame", enc, "us")
	m.set("transport.decode_us_per_frame", dec, "us")
	m.set("transport.bytes_per_frame", bytes, "B")
	m.set("transport.dropped", float64(dropped), "count")

	st := rig.stor
	st.mu.Lock()
	m.set("storage.persist_per_txn", perTxn(st.saves, n), "1/txn")
	m.set("storage.persist_us_p50", float64(percentile(st.saveNS, 50))/1e3, "us")
	m.set("storage.image_bytes_p50", float64(percentile(st.imageBytes, 50)), "B")
	if disk { // the mem driver keeps no WAL
		m.set("storage.fsyncs_per_txn", perTxn(st.syncs, n), "1/txn")
		if st.syncs > 0 {
			m.set("storage.records_per_fsync", float64(st.synced)/float64(st.syncs), "count")
		}
		m.set("storage.disk_bytes_per_txn", perTxn(ph.diskBytes, n), "B/txn")
	}
	st.mu.Unlock()
	m.set("storage.fsync_us_p50", fsyncUS, "us")

	// The sites run without divergence control (site.Config.UseDC is
	// off by default), so the cluster workloads print no dc metric.
	var blocks, fuzzy, deadlocks uint64
	for _, id := range clusterSites {
		ls := rig.c.Site(id).Locks().Stats()
		blocks, fuzzy, deadlocks = blocks+ls.Blocks, fuzzy+ls.FuzzyGrants, deadlocks+ls.Deadlocks
	}
	m.set("lock.blocks_per_txn", perTxn(int64(blocks), n), "1/txn")
	m.set("lock.fuzzy_grants_per_txn", perTxn(int64(fuzzy), n), "1/txn")
	m.set("lock.deadlocks", float64(deadlocks), "count")

	runtimeLayer(m, ph.rt0, ph.rt1, n, goroutines)
}

// maxCodecSamples bounds the frames re-encoded after a traced run.
const maxCodecSamples = 2000

// codecTimes re-times transport.EncodeFrame and DecodeFrame over frames
// the run actually sent and returns the mean µs per frame for each, and
// the mean framed size in bytes.
func codecTimes(frames []simnet.Message) (encUS, decUS, bytes float64) {
	if len(frames) > maxCodecSamples {
		frames = frames[:maxCodecSamples]
	}
	if len(frames) == 0 {
		return 0, 0, 0
	}
	var encNS, decNS, total int64
	for _, msg := range frames {
		start := time.Now()
		b, err := transport.EncodeFrame(msg)
		mid := time.Now()
		if err != nil {
			continue
		}
		_, _, _ = transport.DecodeFrame(b)
		end := time.Now()
		encNS += mid.Sub(start).Nanoseconds()
		decNS += end.Sub(mid).Nanoseconds()
		total += int64(len(b))
	}
	n := float64(len(frames))
	return float64(encNS) / n / 1e3, float64(decNS) / n / 1e3, float64(total) / n
}

// crossCheck compares the taps' counts with the program's own registry:
// they watch the same traffic from two sides and must agree exactly.
func crossCheck(rig *clusterRig) []string {
	var out []string
	wc := rig.tap.counts()
	check := func(what string, tap int64, metric string) {
		if reg := rig.reg.Counter(metric, "").Value(); reg != tap {
			out = append(out, fmt.Sprintf("cross-check: %s counted %d by the tap, %s = %d", what, tap, metric, reg))
		}
	}
	check("distinct messages sent", wc.Distinct, "asynctp_queue_sent_total")
	check("resent messages", wc.Resends, "asynctp_queue_retransmitted_total")
	rig.stor.mu.Lock()
	syncs := rig.stor.syncs
	rig.stor.mu.Unlock()
	check("WAL fsyncs", syncs, "asynctp_wal_fsyncs_total")
	return out
}
