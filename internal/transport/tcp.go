package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	stdnet "net"
	"sync"
	"time"

	"asynctp/internal/simnet"
)

// Config describes one process's view of the wire: which sites it
// hosts (Listen) and where every remote site lives (Peers). A site in
// neither map is unknown — Send returns simnet.ErrUnknownSite, exactly
// as the simulated network does for an unregistered site.
type Config struct {
	// Listen maps each LOCAL site to its listen address. "127.0.0.1:0"
	// allocates a free port; Addr reports the bound address so a parent
	// process can collect and redistribute it to peers.
	Listen map[simnet.SiteID]string
	// Peers maps each REMOTE site to its dial address.
	Peers map[simnet.SiteID]string

	// DialBackoff is the initial redial delay after a failed connect
	// (default 10ms), doubling per attempt up to MaxBackoff (default
	// 1s). Backoff resets on a successful dial.
	DialBackoff time.Duration
	MaxBackoff  time.Duration

	// SendQueue is the per-peer outbound frame queue depth (default
	// 1024). A full queue sheds the frame — counted Dropped, recovered
	// by queue-layer retransmission — instead of blocking the pipeline.
	SendQueue int

	// WAN emulation knobs, meaningful on loopback where real latency is
	// ~0: the same loss/latency/jitter model as the simulated network,
	// applied per frame (loss at send, delay before delivery).
	LossRate float64
	Latency  time.Duration
	Jitter   float64
	Seed     int64
}

// peer is one outbound destination: a message queue drained by a
// writer goroutine that owns the connection and its gob stream,
// redials with capped backoff, and coalesces — the buffered writer is
// flushed only when the queue goes momentarily empty, so a burst of
// frames rides one syscall.
type peer struct {
	to    simnet.SiteID
	addr  string
	sendq chan simnet.Message

	mu        sync.Mutex
	conn      stdnet.Conn
	halfWrite bool // one-shot: write half the next frame, then kill the conn
}

func (p *peer) getConn() stdnet.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

func (p *peer) setConn(c stdnet.Conn) {
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
}

// closeConn tears down the live connection (if any); the writer
// redials on the next frame.
func (p *peer) closeConn() {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (p *peer) takeHalfWrite() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	hw := p.halfWrite
	p.halfWrite = false
	return hw
}

// Net carries simnet.Message frames over real TCP connections. It
// implements simnet.Net, so a site.Cluster built on it runs the
// identical chopped-transaction pipeline as one built on the simulated
// network — including fault schedules: SetDown and SetPartitioned drop
// frames at both ends and kill live connections, SetLossRate and
// SetLatency emulate a lossy, slow WAN on loopback.
//
// Local sites dial their own listener too: every frame crosses a real
// socket, so a single-process loopback cluster exercises the full
// codec + reconnect machinery the multi-process deployment uses.
type Net struct {
	cfg   Config
	stop  chan struct{}
	wg    sync.WaitGroup
	peers map[simnet.SiteID]*peer // all destinations, local and remote

	mu          sync.Mutex
	rng         *rand.Rand
	lossRate    float64
	baseLatency time.Duration
	jitter      float64
	inboxes     map[simnet.SiteID]chan simnet.Message
	listeners   map[simnet.SiteID]stdnet.Listener
	inbound     map[stdnet.Conn]struct{}
	down        map[simnet.SiteID]bool
	partitioned map[[2]simnet.SiteID]bool
	stats       simnet.Stats
	closed      bool
}

var _ simnet.Net = (*Net)(nil)

// New builds the transport. Writer goroutines for remote peers start
// immediately (they dial lazily, on the first frame); local sites
// attach via AddSite.
func New(cfg Config) *Net {
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 1024
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	t := &Net{
		cfg:         cfg,
		stop:        make(chan struct{}),
		peers:       make(map[simnet.SiteID]*peer),
		rng:         rand.New(rand.NewSource(seed)),
		lossRate:    cfg.LossRate,
		baseLatency: cfg.Latency,
		jitter:      cfg.Jitter,
		inboxes:     make(map[simnet.SiteID]chan simnet.Message),
		listeners:   make(map[simnet.SiteID]stdnet.Listener),
		inbound:     make(map[stdnet.Conn]struct{}),
		down:        make(map[simnet.SiteID]bool),
		partitioned: make(map[[2]simnet.SiteID]bool),
	}
	t.stats.PerLink = make(map[string]uint64)
	for id, addr := range cfg.Peers {
		t.addPeer(id, addr)
	}
	return t
}

func (t *Net) addPeer(id simnet.SiteID, addr string) *peer {
	p := &peer{to: id, addr: addr, sendq: make(chan simnet.Message, t.cfg.SendQueue)}
	t.peers[id] = p
	t.wg.Add(1)
	go t.runPeer(p)
	return p
}

// AddSite starts the listener for a local site and returns its inbox.
// The site also becomes a dialable destination for its process-local
// neighbors (self-dial through loopback).
func (t *Net) AddSite(id simnet.SiteID) (<-chan simnet.Message, error) {
	addr, ok := t.cfg.Listen[id]
	if !ok {
		return nil, fmt.Errorf("transport: no listen address for site %q", id)
	}
	l, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	if _, dup := t.inboxes[id]; dup {
		t.mu.Unlock()
		l.Close()
		return nil, fmt.Errorf("transport: site %q already exists", id)
	}
	ch := make(chan simnet.Message, 256)
	t.inboxes[id] = ch
	t.listeners[id] = l
	if _, dialable := t.peers[id]; !dialable {
		t.addPeer(id, l.Addr().String())
	}
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(l)
	return ch, nil
}

// Addr reports the bound listen address of a local site ("" if the
// site was never added). With Listen entries of "127.0.0.1:0" this is
// how a parent process learns the kernel-assigned ports.
func (t *Net) Addr(id simnet.SiteID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.listeners[id]; ok {
		return l.Addr().String()
	}
	return ""
}

func linkKey(a, b simnet.SiteID) [2]simnet.SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]simnet.SiteID{a, b}
}

func payloadCount(msg simnet.Message) uint64 {
	if f, ok := msg.Payload.(simnet.Frame); ok {
		if n := f.FrameLen(); n > 0 {
			return uint64(n)
		}
	}
	return 1
}

// Send hands msg to the destination peer's writer, which encodes it
// onto the connection's gob stream. The failure model mirrors the
// simulated network frame for frame: unknown destinations error,
// down/partitioned destinations count Dropped and return
// simnet.ErrUnreachable, the loss knob sheds silently, and a full send
// queue sheds silently (backpressure as loss — queue-layer
// retransmission recovers both). msg is encoded after Send returns, so
// its payload must not be mutated afterwards.
func (t *Net) Send(msg simnet.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("transport: closed")
	}
	p, ok := t.peers[msg.To]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", simnet.ErrUnknownSite, msg.To)
	}
	t.stats.Sent++
	if t.down[msg.To] || t.down[msg.From] || t.partitioned[linkKey(msg.From, msg.To)] {
		t.stats.Dropped++
		t.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", simnet.ErrUnreachable, msg.From, msg.To)
	}
	if t.lossRate > 0 && t.rng.Float64() < t.lossRate {
		// Silent in-flight loss: the sender believes it sent.
		t.stats.Dropped++
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()

	select {
	case p.sendq <- msg:
	default:
		t.countDropped()
	}
	return nil
}

func (t *Net) countDropped() {
	t.mu.Lock()
	t.stats.Dropped++
	t.mu.Unlock()
}

// runPeer owns one outbound connection and its gob stream. Messages
// arrive on sendq; the writer dials on demand with capped exponential
// backoff, starts a fresh stream encoder on every (re)dial (the
// receiver starts a fresh decoder per connection), encodes each message
// as one frame, writes through a buffered writer, and flushes only when
// the queue goes momentarily empty — a burst of retransmits or batch
// frames coalesces into one syscall. A write error costs the frame in
// hand (it is in-flight loss; the queue layer retransmits) and triggers
// a redial; so does an encode error, which leaves the stream unusable.
func (t *Net) runPeer(p *peer) {
	defer t.wg.Done()
	defer p.closeConn()
	backoff := t.cfg.DialBackoff
	var (
		bw  *bufio.Writer
		enc *streamEncoder
	)
	for {
		var msg simnet.Message
		select {
		case <-t.stop:
			if bw != nil {
				bw.Flush()
			}
			return
		case msg = <-p.sendq:
		}
		for p.getConn() == nil {
			conn, err := stdnet.DialTimeout("tcp", p.addr, time.Second)
			if err != nil {
				select {
				case <-t.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > t.cfg.MaxBackoff {
					backoff = t.cfg.MaxBackoff
				}
				continue
			}
			backoff = t.cfg.DialBackoff
			p.setConn(conn)
			bw = bufio.NewWriterSize(conn, 64<<10)
			enc = newStreamEncoder()
		}
		frame, err := enc.encode(msg)
		if err != nil {
			t.countDropped()
			p.closeConn()
			continue
		}
		if p.takeHalfWrite() {
			// Test hook: a half-written frame, then the conn dies —
			// the receiver sees a torn frame and must resynchronize
			// on a fresh connection, never deliver garbage.
			bw.Flush()
			if c := p.getConn(); c != nil {
				c.Write(frame[:len(frame)/2])
			}
			p.closeConn()
			continue
		}
		if _, err := bw.Write(frame); err != nil {
			p.closeConn()
			continue
		}
		if len(p.sendq) == 0 {
			if err := bw.Flush(); err != nil {
				p.closeConn()
			}
		}
	}
}

func (t *Net) acceptLoop(l stdnet.Listener) {
	defer t.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readConn(conn)
	}
}

// readConn drains frames off one inbound connection through the
// connection's own stream decoder. Any framing or decoding error
// — torn frame, bad CRC, oversized length — kills the connection; the
// peer's writer redials and the queue layer retransmits whatever was
// in flight. Corruption is thereby converted into frame loss, the
// failure the pipeline already masks.
func (t *Net) readConn(conn stdnet.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	dec := newStreamDecoder()
	for {
		msg, err := dec.readFrame(br)
		if err != nil {
			return // clean close, or a corrupt/torn frame: rely on retransmit
		}
		t.deliver(msg)
	}
}

// deliver applies the WAN-emulation delay and the same delivery-time
// reachability re-check as the simulated network: a site that went
// down or a link that partitioned while the frame was "in flight"
// loses it.
func (t *Net) deliver(msg simnet.Message) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	inbox, ok := t.inboxes[msg.To]
	if !ok {
		t.mu.Unlock()
		return
	}
	delay := t.baseLatency
	if t.jitter > 0 && delay > 0 {
		delay += time.Duration(t.rng.Float64() * t.jitter * float64(delay))
	}
	t.wg.Add(1)
	t.mu.Unlock()

	fn := func() {
		defer t.wg.Done()
		t.mu.Lock()
		blocked := t.down[msg.To] || t.down[msg.From] ||
			t.partitioned[linkKey(msg.From, msg.To)] || t.closed
		if blocked {
			t.stats.Dropped++
			t.mu.Unlock()
			return
		}
		t.stats.Delivered++
		t.stats.Payloads += payloadCount(msg)
		t.stats.PerLink[string(msg.From)+"->"+string(msg.To)]++
		t.mu.Unlock()
		select {
		case inbox <- msg:
		case <-t.stop:
		}
	}
	if delay == 0 {
		fn()
	} else {
		time.AfterFunc(delay, fn)
	}
}

// SetDown marks a site crashed or recovered. Going down kills the live
// outbound connection to the site (its frames die with it); frames
// addressed to or from a down site are dropped at send and delivery.
func (t *Net) SetDown(id simnet.SiteID, down bool) {
	t.mu.Lock()
	t.down[id] = down
	p := t.peers[id]
	t.mu.Unlock()
	if down && p != nil {
		p.closeConn()
	}
}

// SetPartitioned cuts or heals the undirected link between two sites.
// Cutting kills the live outbound connections both ways; while cut,
// frames between the pair are dropped at send and delivery.
func (t *Net) SetPartitioned(a, b simnet.SiteID, cut bool) {
	t.mu.Lock()
	t.partitioned[linkKey(a, b)] = cut
	pa, pb := t.peers[a], t.peers[b]
	t.mu.Unlock()
	if cut {
		if pa != nil {
			pa.closeConn()
		}
		if pb != nil {
			pb.closeConn()
		}
	}
}

// SetLossRate changes the emulated silent frame-loss fraction [0, 1].
func (t *Net) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.mu.Lock()
	t.lossRate = rate
	t.mu.Unlock()
}

// SetLatency changes the emulated one-way delivery delay and jitter.
func (t *Net) SetLatency(base time.Duration, jitter float64) {
	if base < 0 {
		base = 0
	}
	if jitter < 0 {
		jitter = 0
	}
	t.mu.Lock()
	t.baseLatency = base
	t.jitter = jitter
	t.mu.Unlock()
}

// Stats snapshots the counters. Sent/Dropped count at this process's
// send side, Delivered/Payloads/PerLink at its receive side; on a
// single-process loopback cluster the two sides see the same frames,
// in a multi-process deployment each process reports its own half.
func (t *Net) Stats() simnet.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stats
	out.PerLink = make(map[string]uint64, len(t.stats.PerLink))
	for k, v := range t.stats.PerLink {
		out.PerLink[k] = v
	}
	return out
}

// KillConn tears down the live outbound connection to a site without
// marking anything unreachable: the transport must redial (capped
// backoff) and the queue layer must retransmit whatever the dead
// connection swallowed. Fault harness hook.
func (t *Net) KillConn(to simnet.SiteID) {
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p != nil {
		p.closeConn()
	}
}

// InjectHalfWrite arms a one-shot fault on the outbound connection to
// a site: the next frame is written only halfway, then the connection
// dies — the receiver-side torn-frame handling and the sender-side
// reconnect both get exercised. Fault harness hook.
func (t *Net) InjectHalfWrite(to simnet.SiteID) {
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p != nil {
		p.mu.Lock()
		p.halfWrite = true
		p.mu.Unlock()
	}
}

// Close stops the wire: no new sends, listeners and connections torn
// down, then waits for the writer/reader/delivery goroutines. Inbox
// channels stay open so receivers drain without panics.
func (t *Net) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	listeners := make([]stdnet.Listener, 0, len(t.listeners))
	for _, l := range t.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]stdnet.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.stop)
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
}
