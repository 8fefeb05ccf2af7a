package queue

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"asynctp/internal/simnet"
)

// imageRecorder is a persist hook that behaves like the disk driver: it
// encodes the image it is handed before returning, and remembers the
// last image that persisted successfully. fail makes it refuse.
type imageRecorder struct {
	t       testing.TB
	mu      sync.Mutex
	fail    bool
	last    []byte
	nextSeq map[simnet.SiteID]uint64 // NextSeq of the last persisted image
}

var errPersistRefused = errors.New("persist refused")

func (r *imageRecorder) persist(st State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return errPersistRefused
	}
	blob, err := st.Encode()
	if err != nil {
		r.t.Errorf("persisted image does not encode: %v", err)
		return err
	}
	r.last = blob
	r.nextSeq = make(map[simnet.SiteID]uint64, len(st.NextSeq))
	for to, seq := range st.NextSeq {
		r.nextSeq[to] = seq
	}
	return nil
}

func (r *imageRecorder) durable() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last == nil {
		return State{}
	}
	st, err := DecodeState(r.last)
	if err != nil {
		r.t.Fatalf("persisted image does not decode: %v", err)
	}
	return st
}

// wireChecker is a Sender that asserts persist-before-wire: no message
// reaches it with a sequence number beyond the last persisted NextSeq
// for its destination.
type wireChecker struct {
	t    testing.TB
	rec  *imageRecorder
	mu   sync.Mutex
	sent int
}

func (w *wireChecker) Send(msg simnet.Message) error {
	var msgs []Msg
	switch p := msg.Payload.(type) {
	case BatchFrame:
		msgs = p.Msgs
	case Msg:
		msgs = []Msg{p}
	}
	w.rec.mu.Lock()
	for _, qm := range msgs {
		if durable := w.rec.nextSeq[msg.To]; qm.Seq > durable {
			w.t.Errorf("%s reached the wire with seq %d; durable NextSeq[%s] = %d", qm.ID, qm.Seq, msg.To, durable)
		}
	}
	w.rec.mu.Unlock()
	w.mu.Lock()
	w.sent += len(msgs)
	w.mu.Unlock()
	return nil
}

// canonicalState drops the differences that carry no meaning — empty
// vs absent entries, nil vs empty slices, the order of sparse
// watermark entries (a set) — so two images compare by content.
func canonicalState(st State) State {
	out := State{
		NextSeq:  map[simnet.SiteID]uint64{},
		Outbox:   map[string]OutboxMsg{},
		Queues:   map[string][]Msg{},
		Inflight: map[string]Msg{},
		Seen:     map[simnet.SiteID]SeenState{},
	}
	for to, seq := range st.NextSeq {
		if seq != 0 {
			out.NextSeq[to] = seq
		}
	}
	for id, om := range st.Outbox {
		out.Outbox[id] = om
	}
	for q, msgs := range st.Queues {
		if len(msgs) > 0 {
			out.Queues[q] = append([]Msg(nil), msgs...)
		}
	}
	for id, msg := range st.Inflight {
		out.Inflight[id] = msg
	}
	for from, ss := range st.Seen {
		if ss.Prefix == 0 && len(ss.Sparse) == 0 {
			continue
		}
		var sparse []uint64
		if len(ss.Sparse) > 0 {
			sparse = append(sparse, ss.Sparse...)
			sort.Slice(sparse, func(i, j int) bool { return sparse[i] < sparse[j] })
		}
		out.Seen[from] = SeenState{Prefix: ss.Prefix, Sparse: sparse}
	}
	return out
}

func requireImageMatches(t testing.TB, what string, durable, live State) {
	t.Helper()
	d, l := canonicalState(durable), canonicalState(live)
	if !reflect.DeepEqual(d, l) {
		t.Fatalf("%s: durable image differs from the live state:\n durable %+v\n live    %+v", what, d, l)
	}
}

// TestSendNeverOutrunsPersist pins persist-before-wire. With a batch cap
// of one, CommitSend flushes synchronously; the flush must persist the
// image that assigned the sequence numbers before any frame leaves.
// Otherwise a crash right after the send restores a lower NextSeq, the
// number goes to a different message, and the receiver's dedup throws
// that message away.
func TestSendNeverOutrunsPersist(t *testing.T) {
	rec := &imageRecorder{t: t}
	wire := &wireChecker{t: t, rec: rec}
	m := NewManager("NY", wire, time.Hour, WithMaxBatch(1), WithFlushDelay(time.Hour), WithPersist(rec.persist))
	defer m.Close()

	buf := m.Buffer()
	for i := 0; i < 3; i++ {
		buf.Enqueue("LA", "pieces", fmt.Sprintf("p%d", i))
	}
	m.CommitSend(buf)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if wire.sent != 3 {
		t.Fatalf("sent %d messages, want 3", wire.sent)
	}
}

// TestSlowPersistCannotReorderImages: a persist of an older image that
// completes late must not overwrite a newer image persisted meanwhile.
// One goroutine's Handle persists the admitted frame (before its ack
// goes out) and stalls in the hook; another commits a send and syncs.
// The image that is durable last must be the newest one.
func TestSlowPersistCannotReorderImages(t *testing.T) {
	var (
		mu      sync.Mutex
		calls   int
		last    []byte
		entered = make(chan struct{})
	)
	hook := func(st State) error {
		blob, err := st.Encode()
		if err != nil {
			return err
		}
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(entered)
			time.Sleep(50 * time.Millisecond) // a slow fsync
		}
		mu.Lock()
		last = blob
		mu.Unlock()
		return nil
	}
	m := NewManager("NY", discardSender{}, time.Hour, WithFlushDelay(0), WithPersist(hook))
	defer m.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Handle(simnet.Message{From: "LA", To: "NY", Kind: KindEnqueueBatch, Payload: BatchFrame{
			Msgs: []Msg{{ID: "LA>NY-1", Seq: 1, From: "LA", Queue: "pieces", Payload: "in"}},
		}})
	}()
	<-entered
	buf := m.Buffer()
	buf.Enqueue("LA", "pieces", "out")
	m.CommitSend(buf)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	<-done

	mu.Lock()
	blob := last
	mu.Unlock()
	durable, err := DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(durable.Outbox) != 1 || durable.NextSeq["LA"] != 1 {
		t.Errorf("durable image lost the committed send: outbox=%d NextSeq=%v", len(durable.Outbox), durable.NextSeq)
	}
	requireImageMatches(t, "after both persists", durable, m.Snapshot())
}

// TestSyncCostIndependentOfBacklog pins the point of the folded image:
// one admit plus its Sync (and the consume plus Sync that keeps the
// queue steady) allocates the same with 10 and with 10 000 messages
// waiting in another queue. A whole-image copy per persist would scale
// with the backlog.
func TestSyncCostIndependentOfBacklog(t *testing.T) {
	measure := func(backlog int) (allocs float64, bytes uint64) {
		var image State
		m := NewManager("NY", discardSender{}, time.Hour, WithFlushDelay(0),
			WithPersist(func(st State) error { image = st; return nil }))
		defer m.Close()
		seq := uint64(0)
		for backlog > 0 {
			n := min(backlog, 64)
			frame := BatchFrame{Msgs: make([]Msg, n)}
			for i := range frame.Msgs {
				seq++
				frame.Msgs[i] = Msg{ID: fmt.Sprintf("LA>NY-%d", seq), Seq: seq, From: "LA", Queue: "backlog", Payload: "waiting"}
			}
			m.Handle(simnet.Message{From: "LA", To: "NY", Kind: KindEnqueueBatch, Payload: frame})
			backlog -= n
		}
		ctx := context.Background()
		ids := make([]string, 1000)
		for i := range ids {
			ids[i] = fmt.Sprintf("LA>NY-%d", seq+uint64(i)+1)
		}
		next := 0
		step := func() {
			seq++
			m.Handle(simnet.Message{From: "LA", To: "NY", Kind: KindEnqueueBatch, Payload: BatchFrame{
				Msgs: []Msg{{ID: ids[next%len(ids)], Seq: seq, From: "LA", Queue: "pieces", Payload: "hot"}},
			}})
			next++
			b, err := m.DequeueBatch(ctx, "pieces", 1)
			if err != nil {
				t.Fatal(err)
			}
			b.Ack()
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ { // warm the maps and slices
			step()
		}
		allocs = testing.AllocsPerRun(200, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 200
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if len(image.Queues["backlog"]) == 0 {
			t.Fatal("the persisted image lost the backlog")
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(10)
	bigAllocs, bigBytes := measure(10000)
	if bigAllocs != smallAllocs {
		t.Errorf("admit+Sync allocates %v times with 10 queued, %v with 10000", smallAllocs, bigAllocs)
	}
	if bigBytes > smallBytes+512 {
		t.Errorf("admit+Sync allocates %d B/op with 10 queued, %d B/op with 10000", smallBytes, bigBytes)
	}
}

type discardSender struct{}

func (discardSender) Send(simnet.Message) error { return nil }

// FuzzQueueImage is a differential test of the folded image against
// the live state it mirrors. The fuzz input is a program of operations
// on one Manager: committed sends, received batches (fresh sequence
// numbers, duplicates, gaps, piggybacked acks of our own sends),
// dequeues, consumer acks and nacks, a persist hook that fails on
// demand, and crash-restore from the last durable image. After every
// successful Sync the durable image must equal Snapshot(), and no
// sequence number may reach the wire before it is durable.
func FuzzQueueImage(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 6, 0, 2, 0, 3, 0, 6, 0})
	f.Add([]byte{1, 0, 1, 5, 1, 9, 2, 1, 4, 0, 6, 0, 7, 0, 6, 0})
	f.Add([]byte{0, 1, 5, 0, 1, 4, 2, 0, 6, 0, 5, 0, 3, 0, 6, 0, 7, 0, 1, 2, 6, 0})
	f.Add([]byte{0, 2, 0, 3, 1, 0x21, 1, 0x13, 2, 0, 2, 1, 4, 1, 3, 0, 5, 0, 7, 0, 6, 0, 5, 0, 6, 0})

	f.Fuzz(func(t *testing.T, prog []byte) {
		rec := &imageRecorder{t: t}
		wire := &wireChecker{t: t, rec: rec}
		m := NewManager("NY", wire, time.Hour, WithFlushDelay(0), WithMaxBatch(2), WithPersist(rec.persist))
		defer m.Close()

		peers := []simnet.SiteID{"LA", "SF"}
		high := map[simnet.SiteID]uint64{} // highest sequence each peer has sent us
		var sent []string                  // IDs of our committed sends, for piggybacked acks
		var held []*Delivery
		check := func(what string) {
			if err := m.Sync(); err != nil {
				if !errors.Is(err, errPersistRefused) {
					t.Fatalf("%s: Sync: %v", what, err)
				}
				return
			}
			requireImageMatches(t, what, rec.durable(), m.Snapshot())
		}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%8, prog[pc+1]
			peer := peers[arg%2]
			switch op {
			case 0: // a committed send of one to three messages
				buf := m.Buffer()
				for i := 0; i <= int(arg>>1)%3; i++ {
					buf.Enqueue(peer, "pieces", fmt.Sprintf("out-%d-%d", pc, i))
				}
				m.CommitSend(buf)
				snap := m.Snapshot()
				for id := range snap.Outbox {
					sent = append(sent, id)
				}
			case 1: // a received batch: fresh, duplicate or gapped sequence numbers
				frame := BatchFrame{}
				for i := 0; i <= int(arg>>1)%3; i++ {
					var seq uint64
					switch (int(arg>>3) + i) % 3 {
					case 0:
						high[peer]++
						seq = high[peer]
					case 1:
						seq = 1 + uint64(arg)%(high[peer]+1)
					default:
						high[peer] += 2
						seq = high[peer]
					}
					frame.Msgs = append(frame.Msgs, Msg{
						ID: fmt.Sprintf("%s>NY-%d", peer, seq), Seq: seq, From: peer,
						Queue: fmt.Sprintf("q%d", seq%2), Payload: fmt.Sprintf("in-%d", seq),
					})
				}
				if len(sent) > 0 && arg&0x40 != 0 {
					frame.Acks = append(frame.Acks, sent[int(arg)%len(sent)])
				}
				m.Handle(simnet.Message{From: peer, To: "NY", Kind: KindEnqueueBatch, Payload: frame})
			case 2: // a consumer dequeues up to three
				q := fmt.Sprintf("q%d", arg%2)
				if m.Depth(q) == 0 {
					continue
				}
				b, err := m.DequeueBatch(context.Background(), q, 1+int(arg>>1)%3)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, b.Deliveries...)
			case 3, 4: // the consumer commits (ack) or aborts (nack)
				if len(held) == 0 {
					continue
				}
				i := int(arg) % len(held)
				if op == 3 {
					held[i].Ack()
				} else {
					held[i].Nack()
				}
				held = append(held[:i], held[i+1:]...)
			case 5: // the disk starts or stops refusing writes
				rec.mu.Lock()
				rec.fail = !rec.fail
				rec.mu.Unlock()
			case 6:
				check(fmt.Sprintf("op %d", pc/2))
			case 7: // crash: restart from the last durable image
				m.Restore(rec.durable())
				held = nil
				check(fmt.Sprintf("restore at op %d", pc/2))
			}
		}
		rec.mu.Lock()
		rec.fail = false
		rec.mu.Unlock()
		check("end")
	})
}
