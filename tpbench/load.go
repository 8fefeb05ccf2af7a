package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one submission reports back to the load generator.
type outcome struct {
	// initiation is the service-side time until the caller may proceed
	// (site.Result.Initiation, or the whole call for a local runner).
	initiation time.Duration
	committed  bool
	rolledBack bool
}

// submitFunc runs one instance of program ti against the system.
type submitFunc func(ctx context.Context, ti int) (outcome, error)

// sample is one submission's timeline in nanoseconds since the run
// epoch. due is the scheduled arrival (open loop) or the issue time
// (closed loop); start is when the call began, end when it returned.
type sample struct {
	due, start, end int64
	initiation      int64
	committed       bool
	rolledBack      bool
	failed          bool
}

// loadResult is the record of one load phase. Times are ns since the
// phase's epoch; the measured window is [warm, warm+measure).
type loadResult struct {
	// samples holds every arrival of an open loop, and a uniform sample
	// (closedSamples in all) of the calls a closed loop issued inside
	// the window.
	samples       []sample
	warm, measure int64
	// offered is the open-loop arrival rate (0 for a closed loop).
	offered     float64
	lateNS      []int64 // open loop: call start minus due time, per arrival
	inflightMax int64
	// peakRSSMB is the process's resident-set peak during the load (for
	// a closed loop, up to its rssAfter-th committed call), and rssErr
	// why it could not be measured.
	peakRSSMB float64
	rssErr    error
	tally
}

// tally counts every call of a phase, warm-up included.
type tally struct {
	attempted, failed, committed, rolledBack int
	// unsettled counts calls that returned neither committed nor rolled
	// back without an error.
	unsettled int
	// completed counts committed calls that returned inside the window,
	// whenever they were issued: the rate the system retired work at;
	// completedIn splits it by sub-window (see windows).
	completed   int
	completedIn [windows]int
}

// windows is the number of equal sub-windows the measured window is cut
// into. Each end-to-end metric is computed per sub-window and the median
// is reported, so a burst of interference from outside the process
// (this benchmark shares a virtual machine's CPUs) moves a few
// sub-windows, not the result.
const windows = 10

// window returns the sub-window holding time t, or -1 outside the
// measured window.
func window(t, warm, measure int64) int {
	if t < warm || t >= warm+measure {
		return -1
	}
	return int((t - warm) * windows / measure)
}

func (t *tally) add(s *sample, warm, measure int64) {
	t.attempted++
	switch {
	case s.failed:
		t.failed++
	case s.committed:
		t.committed++
		if k := window(s.end, warm, measure); k >= 0 {
			t.completed++
			t.completedIn[k]++
		}
	case s.rolledBack:
		t.rolledBack++
	default:
		t.unsettled++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.committed += o.committed
	t.rolledBack += o.rolledBack
	t.unsettled += o.unsettled
	t.completed += o.completed
	for k := range t.completedIn {
		t.completedIn[k] += o.completedIn[k]
	}
}

// closedSamples is how many latency samples a closed loop keeps, split
// evenly between its callers. Each caller keeps a uniform random subset
// of its calls in the window (reservoir sampling) in a buffer filled
// before the load starts, so the benchmark's own memory is the same
// whatever the throughput and does not move peak_rss_mb.
const closedSamples = 1 << 17

// inflight tracks outstanding submissions and their high-water mark.
type inflight struct {
	cur, max atomic.Int64
}

func (f *inflight) inc() {
	n := f.cur.Add(1)
	for {
		m := f.max.Load()
		if n <= m || f.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (f *inflight) dec() { f.cur.Add(-1) }

// openLoop issues Poisson arrivals at rate per second for warm+measure,
// each in its own goroutine, and waits for every submission to return.
// The generator sleeps in the kernel (see sleepUntil), so its pacing
// neither depends on nor perturbs the Go timer wheel the system under
// test uses. Latency is timed from each arrival's due time, so generator
// lateness and any stall that delays later arrivals are charged to the
// system, not hidden.
func openLoop(submit submitFunc, programs int, rate float64, warm, measure time.Duration,
	seed int64, hook func(epoch time.Time, s *sample)) *loadResult {
	rng := rand.New(rand.NewSource(seed))
	horizon := float64(warm + measure)
	var due []int64
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= horizon {
			break
		}
		due = append(due, int64(t))
	}
	// The seed fixes the program of every arrival too, so the same seed
	// replays the same request mix.
	tis := make([]int, len(due))
	for i := range tis {
		tis[i] = rng.Intn(programs)
	}
	res := &loadResult{
		samples: make([]sample, len(due)),
		lateNS:  make([]int64, len(due)),
		warm:    int64(warm), measure: int64(measure), offered: rate,
	}
	var (
		flight inflight
		wg     sync.WaitGroup
		step   func(i int)
	)
	ctx, cancel := context.WithTimeout(context.Background(), warm+measure+submitGrace)
	defer cancel()
	res.rssErr = resetPeakRSS()
	epoch := time.Now()
	// The generator is a relay: the goroutine that waited for arrival i
	// hands the schedule to a fresh goroutine and makes call i itself, so
	// the call starts the moment it is due while the next wait proceeds
	// concurrently.
	step = func(i int) {
		defer wg.Done()
		d := due[i]
		sleepUntil(epoch.Add(time.Duration(d)))
		s := &res.samples[i]
		s.due = d
		s.start = time.Since(epoch).Nanoseconds()
		res.lateNS[i] = s.start - d
		if i+1 < len(due) {
			wg.Add(1)
			go step(i + 1)
		}
		flight.inc()
		out, err := submit(ctx, tis[i])
		s.end = time.Since(epoch).Nanoseconds()
		flight.dec()
		s.record(out, err)
		if hook != nil {
			hook(epoch, s)
		}
	}
	if len(due) > 0 {
		wg.Add(1)
		go step(0)
	}
	wg.Wait()
	res.peakRSSMB = peakRSSMB()
	res.inflightMax = flight.max.Load()
	for i := range res.samples {
		res.tally.add(&res.samples[i], res.warm, res.measure)
	}
	return res
}

// closedLoop keeps window submissions outstanding for warm+measure: each
// of window goroutines issues its next call as soon as the previous one
// returns. Latency is timed from the issue. The resident-set peak is
// read when rssAfter calls have committed: the program's memory grows
// with the work it has done, so a peak read after a fixed time would
// rise with throughput.
func closedLoop(submit submitFunc, programs, window int, warm, measure time.Duration,
	seed int64, rssAfter int64, hook func(epoch time.Time, s *sample)) *loadResult {
	res := &loadResult{warm: int64(warm), measure: int64(measure)}
	var (
		flight    inflight
		wg        sync.WaitGroup
		committed atomic.Int64
	)
	// Every page of the reservoirs is written now, before the peak is
	// reset, so the load adds none of the benchmark's own memory.
	keepN := closedSamples / window
	kept := make([][]sample, window)
	seen := make([]int, window)
	tallies := make([]tally, window)
	for w := range kept {
		kept[w] = make([]sample, keepN)
		for i := range kept[w] {
			kept[w][i].due = -1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), warm+measure+submitGrace)
	defer cancel()
	res.rssErr = resetPeakRSS()
	epoch := time.Now()
	stop := int64(warm + measure)
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			keep := rand.New(rand.NewSource(seed*7919 - int64(w) - 1))
			local, t := kept[w], &tallies[w]
			n := 0
			for {
				issue := time.Since(epoch).Nanoseconds()
				if issue >= stop {
					break
				}
				flight.inc()
				s := sample{due: issue, start: issue}
				out, err := submit(ctx, rng.Intn(programs))
				s.end = time.Since(epoch).Nanoseconds()
				flight.dec()
				s.record(out, err)
				if hook != nil {
					hook(epoch, &s)
				}
				if s.committed && committed.Load() < rssAfter && committed.Add(1) == rssAfter {
					res.peakRSSMB = peakRSSMB()
				}
				t.add(&s, res.warm, res.measure)
				if issue < res.warm {
					continue
				}
				if n < keepN {
					local[n] = s
				} else if j := keep.Intn(n + 1); j < keepN {
					local[j] = s
				}
				n++
			}
			seen[w] = n
		}(w)
	}
	wg.Wait()
	if committed.Load() < rssAfter {
		res.peakRSSMB = peakRSSMB()
	}
	res.inflightMax = flight.max.Load()
	for w := range kept {
		res.samples = append(res.samples, kept[w][:min(seen[w], keepN)]...)
		res.tally.merge(tallies[w])
	}
	return res
}

// submitGrace bounds how long a submission may outlive the load phase
// before it counts as timed out.
const submitGrace = 30 * time.Second

func (s *sample) record(out outcome, err error) {
	if err != nil {
		s.failed = true
		return
	}
	s.initiation = int64(out.initiation)
	s.committed = out.committed
	s.rolledBack = out.rolledBack
}

// measured returns the samples due inside the measured window.
func (r *loadResult) measured() []sample {
	var out []sample
	for _, s := range r.samples {
		if s.due >= r.warm && s.due < r.warm+r.measure {
			out = append(out, s)
		}
	}
	return out
}

// percentile returns the nearest-rank q-th percentile (0..100) of v,
// which it sorts in place; 0 when v is empty.
func percentile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	idx := int(q/100*float64(len(v))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v) {
		idx = len(v) - 1
	}
	return v[idx]
}

// median returns the median of v (sorted in place); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
