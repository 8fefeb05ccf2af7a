package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
)

// The taps below wrap the seams the program already exposes
// (site.Config.Net, site.Config.Storage, driver.Params.Obs) and time the
// calls that cross them. They are attached only in traced runs; the
// untraced runs that produce end-to-end metrics use the bare seams.

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

// span is one timed call at a layer boundary. Times are ns since the
// log's epoch.
type span struct {
	ID    uint64 `json:"id"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// layerTime accumulates one layer's span count, total and self time.
type layerTime struct {
	Spans   int64   `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// spanLog keeps spans in memory (up to max; layer totals keep counting
// past it) and writes them when the run ends.
type spanLog struct {
	epoch time.Time
	max   int

	mu      sync.Mutex
	next    uint64
	spans   []span
	dropped int64
	layers  map[string]*layerTime
	// goroutines is the most goroutines seen as a submission returned.
	goroutines int64
}

func newSpanLog(max int) *spanLog {
	return &spanLog{epoch: time.Now(), max: max, layers: make(map[string]*layerTime)}
}

// add records a span whose self time is its duration minus childNS (the
// part of it covered by a known child span).
func (l *spanLog) add(layer, name string, start, end time.Time, childNS int64) {
	if l == nil {
		return
	}
	s := span{Layer: layer, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	dur := s.End - s.Start
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	s.ID = l.next
	lt := l.layers[layer]
	if lt == nil {
		lt = &layerTime{}
		l.layers[layer] = lt
	}
	lt.Spans++
	lt.TotalMS += float64(dur) / 1e6
	lt.SelfMS += float64(dur-childNS) / 1e6
	if len(l.spans) < l.max {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// submitHook returns a load-generator hook that records one root span
// per submission and samples the goroutine count; nil when tracing is
// off.
func (l *spanLog) submitHook(layer, name string) func(time.Time, *sample) {
	if l == nil {
		return nil
	}
	return func(epoch time.Time, s *sample) {
		l.add(layer, name, epoch.Add(time.Duration(s.start)), epoch.Add(time.Duration(s.end)), 0)
		g := int64(runtime.NumGoroutine())
		l.mu.Lock()
		if g > l.goroutines {
			l.goroutines = g
		}
		l.mu.Unlock()
	}
}

// write dumps the per-layer times and the kept spans as JSON.
func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	data, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Layers   map[string]*layerTime `json:"layers"`
		Dropped  int64                 `json:"dropped_spans"`
		Spans    []span                `json:"spans"`
	}{workload, seed, l.layers, l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------
// Wire tap: a simnet.Net wrapper
// ---------------------------------------------------------------------

// wireCounts are the frame and message counts a netTap observed at Send.
type wireCounts struct {
	Frames      int64 // every Send call
	EnqFrames   int64 // frames carrying queue messages
	AckFrames   int64 // standalone acknowledgement frames
	Msgs        int64 // queue messages sent, resends included
	Distinct    int64 // distinct message IDs sent
	Resends     int64 // sends of an ID already sent before
	SendNS      int64 // total time inside the wrapped Send
	Arrivals    int64 // frames read from the wrapped inboxes
	FirstArrive int64 // distinct message IDs that arrived
}

// netTap wraps a simnet.Net. Send counts what the recoverable queues put
// on the wire (a repeated Msg.ID is a resend) and times the inner Send;
// AddSite interposes a forwarder on each inbox that stamps the first
// arrival of every message ID, which with its first Send gives the hop.
type netTap struct {
	simnet.Net
	spans       *spanLog
	sampleEvery int64

	mu        sync.Mutex
	c         wireCounts
	firstSend map[string]time.Time
	sendNS    map[string]int64 // duration of the Send that first carried an ID
	arrived   map[string]bool
	hopNS     []int64
	sample    []simnet.Message

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newNetTap wraps inner. It keeps every sampleEvery-th frame for the
// codec re-timing (0 keeps none).
func newNetTap(inner simnet.Net, spans *spanLog, sampleEvery int64) *netTap {
	return &netTap{
		Net: inner, spans: spans, sampleEvery: sampleEvery,
		firstSend: make(map[string]time.Time),
		sendNS:    make(map[string]int64),
		arrived:   make(map[string]bool),
		stop:      make(chan struct{}),
	}
}

// queueIDs lists the queue message IDs a frame carries and whether it is
// a pure acknowledgement.
func queueIDs(msg simnet.Message) (ids []string, ackOnly bool) {
	switch p := msg.Payload.(type) {
	case queue.BatchFrame:
		for _, m := range p.Msgs {
			ids = append(ids, m.ID)
		}
		return ids, len(p.Msgs) == 0
	case queue.AckFrame:
		return nil, true
	}
	return nil, false
}

// Send records the frame, then times the inner Send.
func (t *netTap) Send(msg simnet.Message) error {
	ids, ackOnly := queueIDs(msg)
	start := time.Now()
	t.mu.Lock()
	t.c.Frames++
	switch {
	case ackOnly:
		t.c.AckFrames++
	case len(ids) > 0:
		t.c.EnqFrames++
	}
	var fresh []string
	for _, id := range ids {
		t.c.Msgs++
		if _, seen := t.firstSend[id]; seen {
			t.c.Resends++
			continue
		}
		t.c.Distinct++
		t.firstSend[id] = start
		fresh = append(fresh, id)
	}
	if t.sampleEvery > 0 && t.c.Frames%t.sampleEvery == 0 {
		t.sample = append(t.sample, msg)
	}
	t.mu.Unlock()

	err := t.Net.Send(msg)
	end := time.Now()
	t.spans.add("transport", "Net.Send", start, end, 0)
	dur := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	t.c.SendNS += dur
	for _, id := range fresh {
		t.sendNS[id] = dur
	}
	t.mu.Unlock()
	return err
}

// AddSite returns a forwarded copy of the inner inbox.
func (t *netTap) AddSite(id simnet.SiteID) (<-chan simnet.Message, error) {
	in, err := t.Net.AddSite(id)
	if err != nil {
		return nil, err
	}
	out := make(chan simnet.Message)
	t.wg.Add(1)
	go t.forward(in, out)
	return out, nil
}

func (t *netTap) forward(in <-chan simnet.Message, out chan<- simnet.Message) {
	defer t.wg.Done()
	for {
		select {
		case msg := <-in:
			t.arrive(msg)
			select {
			case out <- msg:
			case <-t.stop:
				return
			}
		case <-t.stop:
			return
		}
	}
}

// arrive stamps the first arrival of each message ID in msg.
func (t *netTap) arrive(msg simnet.Message) {
	ids, _ := queueIDs(msg)
	now := time.Now()
	type hop struct {
		from   time.Time
		sendNS int64
	}
	var hops []hop
	t.mu.Lock()
	t.c.Arrivals++
	for _, id := range ids {
		if t.arrived[id] {
			continue
		}
		t.arrived[id] = true
		t.c.FirstArrive++
		if sent, ok := t.firstSend[id]; ok {
			t.hopNS = append(t.hopNS, now.Sub(sent).Nanoseconds())
			hops = append(hops, hop{from: sent, sendNS: t.sendNS[id]})
		}
	}
	t.mu.Unlock()
	for _, h := range hops {
		// The hop covers the Send that first carried the message: the
		// queue layer's self time is the rest (flush wait aside, the
		// socket, the peer's reader and the inbox).
		t.spans.add("queue", "hop", h.from, now, h.sendNS)
	}
}

// Close closes the inner wire, then stops the forwarders.
func (t *netTap) Close() {
	t.Net.Close()
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

// counts snapshots the wire counts.
func (t *netTap) counts() wireCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// hops returns a copy of the hop durations (ns).
func (t *netTap) hops() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.hopNS...)
}

// samples returns the frames kept for codec re-timing.
func (t *netTap) samples() []simnet.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]simnet.Message(nil), t.sample...)
}

// ---------------------------------------------------------------------
// Storage tap: a driver.Driver wrapper plus a WAL observer
// ---------------------------------------------------------------------

// storageTap times Backend.SaveQueues and counts WAL fsyncs.
type storageTap struct {
	spans *spanLog
	next  driver.Observer // the obs plane's observer, for the cross-check

	mu         sync.Mutex
	saves      int64
	saveNS     []int64
	imageBytes []int64
	syncs      int64
	synced     int64
}

// tapDriver wraps a driver so every backend it opens is timed.
type tapDriver struct {
	driver.Driver
	tap *storageTap
}

func (d tapDriver) Open(site string, init map[storage.Key]metric.Value) (driver.Backend, error) {
	be, err := d.Driver.Open(site, init)
	if err != nil {
		return nil, err
	}
	return tapBackend{Backend: be, tap: d.tap}, nil
}

type tapBackend struct {
	driver.Backend
	tap *storageTap
}

// imageSampleEvery sets how often SaveQueues re-encodes the image to
// measure its size (encoding every save would double the mem driver's
// persist cost in the traced run).
const imageSampleEvery = 8

func (b tapBackend) SaveQueues(st queue.State) error {
	start := time.Now()
	err := b.Backend.SaveQueues(st)
	end := time.Now()
	b.tap.spans.add("storage", "SaveQueues", start, end, 0)
	b.tap.mu.Lock()
	b.tap.saves++
	n := b.tap.saves
	b.tap.saveNS = append(b.tap.saveNS, end.Sub(start).Nanoseconds())
	b.tap.mu.Unlock()
	if n%imageSampleEvery == 1 {
		if blob, eerr := st.Encode(); eerr == nil {
			b.tap.mu.Lock()
			b.tap.imageBytes = append(b.tap.imageBytes, int64(len(blob)))
			b.tap.mu.Unlock()
		}
	}
	return err
}

// WALSynced implements driver.Observer: one call per fsync cohort.
func (s *storageTap) WALSynced(site string, records int) {
	now := time.Now()
	s.spans.add("storage", "WAL.sync", now, now, 0)
	s.mu.Lock()
	s.syncs++
	s.synced += int64(records)
	s.mu.Unlock()
	if s.next != nil {
		s.next.WALSynced(site, records)
	}
}

// Recovered implements driver.Observer.
func (s *storageTap) Recovered(site string, entries int, tornBytes int64) {
	if s.next != nil {
		s.next.Recovered(site, entries, tornBytes)
	}
}

// Checkpointed implements driver.Observer.
func (s *storageTap) Checkpointed(site string, prunedSegments int) {
	if s.next != nil {
		s.next.Checkpointed(site, prunedSegments)
	}
}
