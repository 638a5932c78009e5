package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fdp/internal/obs"
	"fdp/internal/ref"
	"fdp/internal/sim"
)

// TCPConfig configures one node's endpoint of the wire transport.
type TCPConfig struct {
	// Self is this node's id; frames it sends carry it as the sender.
	Self NodeID
	// Listen is the address to accept peer connections on ("127.0.0.1:0"
	// picks a free port; Addr reports the bound address).
	Listen string
	// Peers maps every other node id to its listen address. Links dial
	// lazily, on the first frame.
	Peers map[NodeID]string
	// Handler receives inbound frames and locally synthesized bounces.
	// Calls arrive on transport goroutines.
	Handler Handler
	// Metrics, if non-nil, receives the per-link counters
	// (fdp_transport_frames_total, _bytes_total, _redials_total,
	// _bounces_total, labeled by link and direction).
	Metrics *obs.Registry

	// DialTimeout bounds one dial attempt (default 2s); WriteTimeout
	// bounds one frame write (default 5s). RedialBudget is how many
	// dial-and-write attempts a single frame gets before it bounces
	// (default 5); BackoffBase the delay after the first failed attempt
	// (default 25ms), doubling per attempt and capped at one second.
	DialTimeout  time.Duration
	WriteTimeout time.Duration
	RedialBudget int
	BackoffBase  time.Duration
}

// TCP is the wire transport: one listener for inbound frames, one lazily
// dialed, serially written link per peer. Frames are length-prefixed (see
// wire.go); a frame that cannot be written within the redial budget comes
// back to the local handler as a bounce, which is the transport-level
// failure detection the protocol's undeliverable path models.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener

	// mu is not a leaf: link() registers a new peer's counters under it, so
	// the acquisition graph carries TCP.mu → obs.Registry.mu (DESIGN.md §14).
	mu    sync.Mutex
	links map[NodeID]*link
	conns map[net.Conn]struct{} // inbound, tracked so Close unblocks readers
	done  bool

	rejected *obs.Counter // RejectedCounter

	wg sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// outFrame is one queued frame plus what the writer needs to bounce it.
type outFrame struct {
	kind byte
	to   ref.Ref // data frames only
	msg  sim.Message
	buf  []byte
}

// link is the outbound half of one peer connection: a queue drained by one
// writer goroutine, which owns the conn and the redial state.
type link struct {
	t    *TCP
	peer NodeID
	addr string
	q    chan outFrame
	stop chan struct{}
	conn net.Conn // writer-goroutine private

	frames, bytes, redials, bounces *obs.Counter
}

// NewTCP opens the listener and starts the accept loop. Links to peers come
// up on first use.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("transport: TCPConfig.Handler is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.RedialBudget <= 0 {
		cfg.RedialBudget = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	t := &TCP{cfg: cfg, ln: ln,
		links: make(map[NodeID]*link), conns: make(map[net.Conn]struct{}),
		rejected: RejectedCounter(cfg.Metrics, cfg.Self)}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) a peer address before traffic to it
// starts. It exists for the ":0" bootstrap order — open every listener
// first, then exchange addresses. An already-dialed link keeps its address.
func (t *TCP) SetPeer(node NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Peers == nil {
		t.cfg.Peers = make(map[NodeID]string)
	}
	t.cfg.Peers[node] = addr
}

// Send queues a data frame for the peer owning to. False means refused
// outright (closed transport, unknown peer, unencodable payload, or a full
// queue on an already-dead link) — the caller treats it as the model's drop
// path. True means queued; a later link failure surfaces as a bounce.
func (t *TCP) Send(node NodeID, to ref.Ref, msg sim.Message) bool {
	return t.enqueue(node, frameData, to, msg, nil)
}

// SendBounce returns an undeliverable message to its sending node. Best
// effort: a bounce that cannot be shipped is dropped (the sender's verify
// backoff re-probes gone peers anyway).
func (t *TCP) SendBounce(node NodeID, to ref.Ref, msg sim.Message) bool {
	return t.enqueue(node, frameBounce, to, msg, nil)
}

// SendControl ships an opaque control payload to one peer, best effort.
func (t *TCP) SendControl(node NodeID, payload []byte) bool {
	return t.enqueue(node, frameControl, ref.Nil, sim.Message{}, payload)
}

// BroadcastControl ships an opaque control payload to every peer.
func (t *TCP) BroadcastControl(payload []byte) {
	t.mu.Lock()
	peers := make([]NodeID, 0, len(t.cfg.Peers))
	for id := range t.cfg.Peers {
		peers = append(peers, id)
	}
	t.mu.Unlock()
	// Deterministic order costs nothing and keeps traces readable.
	for i := 1; i < len(peers); i++ {
		for j := i; j > 0 && peers[j] < peers[j-1]; j-- {
			peers[j], peers[j-1] = peers[j-1], peers[j]
		}
	}
	for _, id := range peers {
		t.SendControl(id, payload)
	}
}

func (t *TCP) enqueue(node NodeID, kind byte, to ref.Ref, msg sim.Message, payload []byte) bool {
	var body []byte
	var err error
	if kind == frameControl {
		body = append([]byte(nil), payload...)
	} else if body, err = encodeDataBody(to, msg); err != nil {
		return false
	}
	l := t.link(node)
	if l == nil {
		return false
	}
	f := outFrame{kind: kind, to: to, msg: msg, buf: encodeFrame(kind, t.cfg.Self, body)}
	select {
	case l.q <- f:
		return true
	default:
		// Queue full: the link is dead or badly behind. Refusing is the
		// honest answer — for data frames the caller's drop path runs the
		// sender's undeliverable callback immediately.
		return false
	}
}

// link returns (creating on first use) the outbound link to a peer.
func (t *TCP) link(node NodeID) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	if l, ok := t.links[node]; ok {
		return l
	}
	addr, ok := t.cfg.Peers[node]
	if !ok {
		return nil
	}
	l := &link{t: t, peer: node, addr: addr,
		q: make(chan outFrame, 4096), stop: make(chan struct{})}
	if r := t.cfg.Metrics; r != nil {
		lbl := fmt.Sprintf("{link=\"%d->%d\"}", t.cfg.Self, node)
		l.frames = r.Counter("fdp_transport_frames_total"+lbl, "frames written per link")
		l.bytes = r.Counter("fdp_transport_bytes_total"+lbl, "bytes written per link")
		l.redials = r.Counter("fdp_transport_redials_total"+lbl, "reconnect attempts per link")
		l.bounces = r.Counter("fdp_transport_bounces_total"+lbl, "frames bounced after redial budget per link")
	}
	t.links[node] = l
	t.wg.Add(1)
	go l.writeLoop()
	return l
}

// writeLoop drains the link's queue, dialing on demand and redialing with
// exponential backoff. One frame gets RedialBudget attempts; exhausting
// them bounces data frames to the local handler and drops the rest.
func (l *link) writeLoop() {
	defer l.t.wg.Done()
	defer func() {
		if l.conn != nil {
			l.conn.Close()
		}
	}()
	for {
		var f outFrame
		select {
		case <-l.stop:
			return
		case f = <-l.q:
		}
		if !l.writeFrame(f) {
			if f.kind == frameData {
				if l.bounces != nil {
					l.bounces.Inc()
				}
				l.t.cfg.Handler.HandleBounce(LocalBounce, f.to, f.msg)
			}
		}
	}
}

func (l *link) writeFrame(f outFrame) bool {
	backoff := l.t.cfg.BackoffBase
	for attempt := 0; attempt < l.t.cfg.RedialBudget; attempt++ {
		if attempt > 0 {
			if l.redials != nil {
				l.redials.Inc()
			}
			select {
			case <-l.stop:
				return false
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		if l.conn == nil {
			conn, err := net.DialTimeout("tcp", l.addr, l.t.cfg.DialTimeout)
			if err != nil {
				continue
			}
			l.conn = conn
		}
		l.conn.SetWriteDeadline(time.Now().Add(l.t.cfg.WriteTimeout))
		if _, err := l.conn.Write(f.buf); err != nil {
			// The write may have been torn mid-frame; the peer's reader
			// resynchronizes by dropping the connection, so a redial here
			// can retransmit a frame the peer already processed — that is
			// the duplicate-delivery case journals tolerate.
			l.conn.Close()
			l.conn = nil
			continue
		}
		if l.frames != nil {
			l.frames.Inc()
			l.bytes.Add(uint64(len(f.buf)))
		}
		return true
	}
	return false
}

// acceptLoop accepts peer connections and spawns a reader per connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// RejectedCounter returns node's counter of inbound frames refused for their
// content: malformed on the wire (counted by the transport) or claiming an
// identity that is no node of the run (counted by the node layer — into the
// same series when both share reg). A nil reg yields an unregistered counter.
func RejectedCounter(reg *obs.Registry, node NodeID) *obs.Counter {
	if reg == nil {
		return new(obs.Counter)
	}
	return reg.Counter(fmt.Sprintf("fdp_transport_rejected_total{node=\"%d\"}", node),
		"inbound frames refused as malformed or misattributed")
}

// readLoop parses frames off one inbound connection and dispatches them.
// Any framing error drops the connection — the peer's writer redials and
// retransmits, which is where duplicate deliveries come from. A connection
// dropped for what a frame said, rather than for I/O, is counted.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	var rx, rxBytes *obs.Counter
	for {
		kind, from, body, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, errMalformed) {
				t.rejected.Inc()
			}
			return
		}
		if t.cfg.Metrics != nil && rx == nil {
			lbl := fmt.Sprintf("{link=\"%d->%d\",dir=\"rx\"}", from, t.cfg.Self)
			rx = t.cfg.Metrics.Counter("fdp_transport_frames_total"+lbl, "frames read per link")
			rxBytes = t.cfg.Metrics.Counter("fdp_transport_bytes_total"+lbl, "bytes read per link")
		}
		if rx != nil {
			rx.Inc()
			rxBytes.Add(uint64(len(body)))
		}
		switch kind {
		case frameData, frameBounce:
			to, msg, err := decodeDataBody(body)
			if err != nil {
				t.rejected.Inc()
				return // poisoned stream; force the peer to retransmit
			}
			if kind == frameData {
				t.cfg.Handler.HandleDeliver(from, to, msg)
			} else {
				t.cfg.Handler.HandleBounce(from, to, msg)
			}
		case frameControl:
			t.cfg.Handler.HandleControl(from, body)
		default:
			t.rejected.Inc()
			return
		}
	}
}

// Close tears the transport down: the listener and every connection close,
// queued frames are abandoned, and all transport goroutines exit before
// Close returns.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	for _, l := range t.links {
		close(l.stop)
	}
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
