package queue

import (
	"bytes"
	"encoding/gob"

	"asynctp/internal/simnet"
)

// This file gives State a durable wire form. The mem driver keeps State
// objects in memory, but the disk driver must serialize the queue image
// into its write-ahead log; gob carries the nested maps, the sparse
// dedup sets, and — via RegisterPayloadType — the application payload
// types inside Msg.

// RegisterPayloadType registers a concrete payload type carried in
// Msg.Payload so EncodeState/DecodeState can round-trip it. Call it from
// an init function in the package that owns the payload type; both the
// encoding and the decoding process must have registered the same types.
func RegisterPayloadType(v any) { gob.Register(v) }

// The queue layer's own wire payloads must round-trip through any
// gob-based transport codec (the TCP transport frames whole
// simnet.Messages): register them once, here, for every process.
func init() {
	gob.Register(Msg{})
	gob.Register(BatchFrame{})
	gob.Register(AckFrame{})
	gob.Register("") // legacy single-message acks carry the Msg ID
}

// Encode serializes the state for a durable store.
func (st State) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeState parses a blob produced by Encode. Nil maps in the result
// are valid (Restore treats them as empty).
func DecodeState(data []byte) (State, error) {
	var st State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return State{}, err
	}
	return st, nil
}

// WithPersist installs the durability hook that Sync feeds: a received
// frame's acknowledgement is released only by a Sync that made its
// admitted messages durable, and flush and the retransmitter sync
// before any queue message reaches the wire. While persists fail no
// ack goes out — the sender keeps the messages in its outbox and
// retransmits, and the watermark dedup absorbs the redelivery. Without
// this barrier a group-commit fsync slower than the ack coalescing
// window could acknowledge a message whose durable queue image never
// hit disk: kill -9 in that window would lose the message at the
// receiver after the sender forgot it.
//
// persist receives the Manager's own image, not a copy: it is valid
// until the next Sync, which updates it in place (persist calls are
// serialized). A hook may keep it as the durable image (the mem driver
// does) but must not modify it, and must copy or encode it before
// returning if it needs the bytes of this version.
func WithPersist(persist func(State) error) Option {
	return func(m *Manager) {
		m.persist = persist
		m.image = State{
			NextSeq:  make(map[simnet.SiteID]uint64),
			Outbox:   make(map[string]OutboxMsg),
			Queues:   make(map[string][]Msg),
			Inflight: make(map[string]Msg),
			Seen:     make(map[simnet.SiteID]SeenState),
		}
	}
}

// The durable image is kept incrementally. Every durable mutation is
// appended to m.log under m.mu, in the order it happens, and numbered
// by its log position; Sync folds the log into m.image under
// m.persistMu and persists the image. A persist therefore costs
// O(mutations since the last one), not O(image), and because folds and
// persists are serialized the hook sees images in mutation order — a
// slow persist of an older image can never land after a newer one.
type imageOpKind uint8

const (
	opSend    imageOpKind = iota // msg entered the outbox for to; NextSeq[to] = msg.Seq
	opAcked                      // outbox entry id was acknowledged
	opAdmit                      // msg admitted to its queue; sender watermark now prefix
	opDequeue                    // the first n messages of queue id went in flight
	opConsume                    // in-flight id was consumed (Delivery.Ack)
	opNack                       // in-flight msg went back to the front of its queue
)

type imageOp struct {
	kind   imageOpKind
	to     simnet.SiteID
	id     string
	n      int
	prefix uint64
	msg    Msg
}

// logLocked records one durable mutation for the next Sync and returns
// its log position. Without a persist hook there is no image to keep.
// Callers hold m.mu.
func (m *Manager) logLocked(op imageOp) uint64 {
	if m.persist == nil {
		return 0
	}
	m.log = append(m.log, op)
	m.logPos++
	return m.logPos
}

// fold applies one logged mutation to the image. Callers hold
// m.persistMu.
func (m *Manager) fold(op *imageOp) {
	img := &m.image
	switch op.kind {
	case opSend:
		img.NextSeq[op.to] = op.msg.Seq
		img.Outbox[op.msg.ID] = OutboxMsg{Msg: op.msg, To: op.to}
	case opAcked:
		delete(img.Outbox, op.id)
	case opAdmit:
		img.Queues[op.msg.Queue] = append(img.Queues[op.msg.Queue], op.msg)
		ss := img.Seen[op.msg.From]
		ss.Prefix = op.prefix
		if seq := seqOf(op.msg); seq > op.prefix {
			ss.Sparse = append(ss.Sparse, seq)
		}
		if len(ss.Sparse) > 0 {
			kept := ss.Sparse[:0]
			for _, seq := range ss.Sparse {
				if seq > op.prefix {
					kept = append(kept, seq)
				}
			}
			ss.Sparse = kept
		}
		img.Seen[op.msg.From] = ss
	case opDequeue:
		q := img.Queues[op.id]
		for _, msg := range q[:op.n] {
			img.Inflight[msg.ID] = msg
		}
		img.Queues[op.id] = q[op.n:]
	case opConsume:
		delete(img.Inflight, op.id)
	case opNack:
		delete(img.Inflight, op.msg.ID)
		img.Queues[op.msg.Queue] = append([]Msg{op.msg}, img.Queues[op.msg.Queue]...)
	}
}

// Sync makes the durable image current: it folds every mutation logged
// since the last persist into the image and hands the image to the
// persist hook (WithPersist). It returns the hook's error; after a
// failed persist the next Sync persists again. Without a hook Sync does
// nothing.
func (m *Manager) Sync() error {
	m.mu.Lock()
	pos := m.logPos
	m.mu.Unlock()
	return m.syncTo(pos)
}

// syncTo makes the image durable at least up to log position pos.
// Flush and the retransmitter call it with the position of the newest
// message they are about to send: that is the persist-before-wire
// invariant — no sequence number reaches the wire before the image that
// assigned it is durable, so a restart can never hand it to a
// different message. A position an earlier persist already covered
// costs nothing, and Syncs that queue behind an in-flight persist find
// their mutations folded into the next one (group commit). A
// successful syncTo also releases the acks whose admissions are now
// durable.
func (m *Manager) syncTo(pos uint64) error {
	if m.persist == nil {
		return nil
	}
	if m.durablePos.Load() < pos {
		m.persistMu.Lock()
		defer m.persistMu.Unlock()
		if m.durablePos.Load() < pos {
			m.mu.Lock()
			log, upTo := m.log, m.logPos
			m.log = m.spare
			m.mu.Unlock()
			for i := range log {
				m.fold(&log[i])
			}
			clear(log) // drop payload references held by the reused buffer
			m.spare = log[:0]
			if err := m.persist(m.image); err != nil {
				return err
			}
			m.durablePos.Store(upTo)
		}
	}
	m.mu.Lock()
	if len(m.unsyncedAcks) > 0 && m.unsyncedPos <= m.durablePos.Load() {
		for from, ids := range m.unsyncedAcks {
			m.pendingAcks[from] = append(m.pendingAcks[from], ids...)
			delete(m.unsyncedAcks, from)
		}
	}
	m.mu.Unlock()
	return nil
}

// snapshotLocked is Snapshot's body; callers hold m.mu.
func (m *Manager) snapshotLocked() State {
	st := State{
		NextSeq:  make(map[simnet.SiteID]uint64, len(m.nextSeq)),
		Outbox:   make(map[string]OutboxMsg, len(m.outbox)),
		Queues:   make(map[string][]Msg, len(m.queues)),
		Inflight: make(map[string]Msg, len(m.inflight)),
		Seen:     make(map[simnet.SiteID]SeenState, len(m.seen)),
	}
	for to, seq := range m.nextSeq {
		st.NextSeq[to] = seq
	}
	for id, om := range m.outbox {
		st.Outbox[id] = OutboxMsg{Msg: om.msg, To: om.to}
	}
	for q, msgs := range m.queues {
		st.Queues[q] = append([]Msg(nil), msgs...)
	}
	for id, msg := range m.inflight {
		st.Inflight[id] = msg
	}
	for from, ss := range m.seen {
		snap := SeenState{Prefix: ss.prefix}
		for seq := range ss.sparse {
			snap.Sparse = append(snap.Sparse, seq)
		}
		st.Seen[from] = snap
	}
	return st
}
