package radio

import (
	"fmt"
	"slices"
	"sort"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
	"ecgrid/internal/spatial"
)

// Endpoint is what the channel needs from an attached host. The node
// layer implements it.
type Endpoint interface {
	// ID returns the host identifier.
	ID() hostid.ID
	// Position returns the host's current location.
	Position() geom.Point
	// Battery returns the host's battery; the channel drives its
	// radio-mode transitions.
	Battery() *energy.Battery
	// Deliver hands a successfully received frame to the host's
	// protocol stack.
	Deliver(f *Frame)
}

// Mover is an optional Endpoint extension: hosts that can bound their
// own future movement implement it so the channel's spatial index can
// re-bucket them event-driven instead of scanning. NextExit must return
// a conservative (never late) estimate of the earliest time ≥ t at
// which the host's position may leave bounds, or +Inf if it never will.
// Endpoints without it (test stubs) are kept on a brute-force side list
// and still receive correctly.
type Mover interface {
	NextExit(t float64, bounds geom.Rect) float64
}

// transmission is a frame in flight. Transmissions are pooled: by the
// end of endTransmission nothing references the struct (the carrier
// sense set, the sender, and every receiving list have let go), so it is
// recycled for the next startTransmission.
type transmission struct {
	frame   *Frame
	sender  *station
	from    geom.Point // sender position at transmission start
	ends    float64
	rx      []reception // fixed-capacity: receiving maps hold &rx[i]
	seq     uint64      // carrier-sense index key
	attempt int         // retry count for unicast
	live    int         // position in Channel.liveTx (swap-delete index)
	endFn   func()      // endTransmission(self), bound once per pooled struct
}

// reception is one receiver's view of a transmission.
type reception struct {
	tx        *transmission
	st        *station
	corrupted bool
}

// station is the channel-side state of an attached endpoint.
type station struct {
	ep        Endpoint
	listening bool
	detached  bool

	transmitting *transmission
	// tryFn is the backoff-expiry callback bound once at Attach, so each
	// medium-access cycle schedules without allocating a closure.
	tryFn func()
	// receiving holds the in-progress receptions at this station. It is
	// a slice, not a map: stations overhear at most a handful of frames
	// at once, so a linear scan beats hashing, and every consumer is
	// either a pure existence check or an order-insensitive corruption
	// sweep, so insertion order (which is deterministic) never shows.
	receiving []*reception
	queue     sendQueue
	accessing bool // backoff event pending
	cwSlots   int  // current contention window
}

// dropReceiving removes one reception from the station's in-progress
// list by identity. Swap-delete: order is not meaningful (see receiving).
func (s *station) dropReceiving(r *reception) bool {
	for j, o := range s.receiving {
		if o == r {
			last := len(s.receiving) - 1
			s.receiving[j] = s.receiving[last]
			s.receiving[last] = nil
			s.receiving = s.receiving[:last]
			return true
		}
	}
	return false
}

// abortReceiving corrupts and clears every in-progress reception (the
// station slept or died mid-frame).
func (s *station) abortReceiving() {
	for i, r := range s.receiving {
		r.corrupted = true
		s.receiving[i] = nil
	}
	s.receiving = s.receiving[:0]
}

// queued is a frame waiting for medium access.
type queued struct {
	frame   *Frame
	attempt int
}

// mode derives the energy mode the station should be charged at.
func (s *station) mode() energy.Mode {
	switch {
	case !s.listening:
		return energy.Sleep
	case s.transmitting != nil:
		return energy.Transmit
	case len(s.receiving) > 0:
		return energy.Receive
	default:
		return energy.Idle
	}
}

// Channel is the shared wireless medium. All methods must be called from
// simulation events (the engine is single-threaded).
type Channel struct {
	engine   *sim.Engine
	rng      *sim.RNG
	cfg      Config
	stations map[hostid.ID]*station
	order    []hostid.ID // attached IDs, sorted: deterministic iteration
	active   map[*transmission]struct{}
	counters Counters
	perKind  map[string]KindCount

	// Spatial acceleration (nil when cfg.BruteForce): index buckets the
	// Mover-capable stations for receiver discovery, txIdx holds the
	// origins of in-flight transmissions for carrier sense, and
	// unindexed lists stations without motion info (sorted; scanned
	// brute-force and merged into the candidate set).
	index     *spatial.Index[*station]
	txIdx     *spatial.PointSet
	unindexed []hostid.ID
	// Receiver-scan scratch: cand collects the index's unsorted
	// candidates; cpos holds each admitted candidate's position (parallel
	// to cand); keys imposes host-ID iteration order by sorting packed
	// (ID, candidate-index) int64s over only the candidates that passed
	// the receiver filter — a plain integer sort over the survivors, an
	// order of magnitude cheaper than sorting all candidate structs with
	// a comparison closure. rxFree recycles reception buffers (their
	// pointers leave the receiving lists before the buffer is pooled).
	cand   []spatial.Candidate[*station]
	cpos   []geom.Point
	keys   []int64
	rxFree [][]reception

	// nearCand is AppendNearby's scratch, separate from cand so a query
	// never aliases a receiver scan.
	nearCand []spatial.Candidate[*station]

	// txFree and frameFree recycle transmission and pooled-Frame structs
	// the same way rxFree recycles reception buffers: everything leaves
	// the live structures before the struct returns to its pool.
	txFree    []*transmission
	frameFree []*Frame
	txSeq     uint64
	// liveTx tracks every in-flight transmission (both carrier-sense
	// modes, including ones whose sender has since detached) so Shutdown
	// can return their frames to the pool. Removal is swap-delete via
	// transmission.live.
	liveTx []*transmission

	// Sniffer, when non-nil, observes every transmission start. Tests
	// and the trace layer use it.
	Sniffer func(f *Frame, at float64)

	// Interceptor, when non-nil, vets every potential reception at
	// transmission start: it is called once per in-range listening
	// receiver with the frame and the sender and receiver positions, and
	// returning false corrupts the frame at that receiver (fault
	// injection: jamming). The receiver still pays the reception energy,
	// exactly as with a real collision; corrupted unicasts go through the
	// normal MAC retry/failure path.
	Interceptor func(f *Frame, from, to geom.Point) bool
}

// NewChannel creates a medium with the given parameters.
func NewChannel(engine *sim.Engine, rng *sim.RNG, cfg Config) *Channel {
	if cfg.Range <= 0 || cfg.BitrateBps <= 0 {
		panic("radio: invalid config")
	}
	if cfg.MinBackoffSlots < 1 {
		cfg.MinBackoffSlots = 1
	}
	if cfg.MaxBackoffSlots < cfg.MinBackoffSlots {
		cfg.MaxBackoffSlots = cfg.MinBackoffSlots
	}
	c := &Channel{
		engine:   engine,
		rng:      rng,
		cfg:      cfg,
		stations: make(map[hostid.ID]*station),
		active:   make(map[*transmission]struct{}),
		perKind:  make(map[string]KindCount),
	}
	if !cfg.BruteForce {
		// Cell side and slack trade query breadth against maintenance
		// rate; any positive values are correct (see internal/spatial),
		// so the defaults just balance the two at the paper's geometry.
		side := cfg.IndexCellM
		if side <= 0 {
			side = cfg.Range / 2
		}
		slack := cfg.IndexSlackM
		if slack <= 0 {
			slack = cfg.Range / 8
		}
		c.index = spatial.NewIndex[*station](engine, side, slack)
		c.txIdx = spatial.NewPointSet(side)
	}
	return c
}

// Counters returns a snapshot of the channel-wide MAC statistics.
func (c *Channel) Counters() Counters { return c.counters }

// PerKind returns a copy of the per-frame-kind air usage (transmissions,
// including MAC retries).
func (c *Channel) PerKind() map[string]KindCount {
	out := make(map[string]KindCount, len(c.perKind))
	for k, v := range c.perKind { //simlint:ordered map-to-map copy, order never observed
		out[k] = v
	}
	return out
}

// Config returns the channel parameters.
func (c *Channel) Config() Config { return c.cfg }

// Attach registers an endpoint. Hosts start in listening (awake) state.
func (c *Channel) Attach(ep Endpoint) {
	id := ep.ID()
	if _, dup := c.stations[id]; dup {
		panic(fmt.Sprintf("radio: duplicate attach of %v", id))
	}
	if c.index != nil && (id < 0 || int64(id) > int64(1<<31-1)) {
		// The receiver scan packs IDs into the top 32 bits of a sort key.
		panic(fmt.Sprintf("radio: host id %v outside [0, 2^31) — use Config.BruteForce for exotic id spaces", id))
	}
	st := &station{
		ep:        ep,
		listening: true,
		cwSlots:   c.cfg.MinBackoffSlots,
	}
	st.tryFn = func() { c.tryTransmit(st) }
	c.stations[id] = st
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	c.order = append(c.order, 0)
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = id
	if c.index != nil {
		if mv, ok := ep.(Mover); ok {
			c.index.Insert(id, st, ep.Position, mv.NextExit)
		} else {
			j := sort.Search(len(c.unindexed), func(j int) bool { return c.unindexed[j] >= id })
			c.unindexed = append(c.unindexed, 0)
			copy(c.unindexed[j+1:], c.unindexed[j:])
			c.unindexed[j] = id
		}
	}
}

// Detach removes a host (battery death). In-flight receptions at the host
// are dropped; its in-flight transmission, if any, completes on the air
// but is never retried.
func (c *Channel) Detach(id hostid.ID) {
	st, ok := c.stations[id]
	if !ok {
		return
	}
	st.detached = true
	for !st.queue.empty() {
		c.ReleaseFrame(st.queue.popFront().frame)
	}
	st.queue.clear()
	st.abortReceiving()
	delete(c.stations, id)
	if i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id }); i < len(c.order) && c.order[i] == id {
		c.order = append(c.order[:i], c.order[i+1:]...)
	}
	if c.index != nil {
		c.index.Remove(id)
		if j := sort.Search(len(c.unindexed), func(j int) bool { return c.unindexed[j] >= id }); j < len(c.unindexed) && c.unindexed[j] == id {
			c.unindexed = append(c.unindexed[:j], c.unindexed[j+1:]...)
		}
	}
}

// SetListening flips a host between awake (true) and asleep (false).
// Falling asleep aborts any receptions in progress; the host keeps any
// transmission it already started (protocols never sleep mid-send).
// The battery mode is updated accordingly.
func (c *Channel) SetListening(id hostid.ID, on bool) {
	st, ok := c.stations[id]
	if !ok {
		return
	}
	if st.listening == on {
		return
	}
	st.listening = on
	if !on {
		st.abortReceiving()
	}
	c.updateMode(st)
}

// Listening reports whether the host is attached and awake.
func (c *Channel) Listening(id hostid.ID) bool {
	st, ok := c.stations[id]
	return ok && st.listening
}

func (c *Channel) updateMode(st *station) {
	if st.detached {
		return
	}
	st.ep.Battery().SetMode(c.engine.Now(), st.mode())
}

// Send queues a frame for transmission from src. The frame goes on air
// after carrier sense and backoff. Sending from a sleeping or detached
// host is a protocol bug and panics.
func (c *Channel) Send(src hostid.ID, f *Frame) {
	st, ok := c.stations[src]
	if !ok {
		panic(fmt.Sprintf("radio: Send from detached host %v", src))
	}
	if !st.listening {
		panic(fmt.Sprintf("radio: Send from sleeping host %v", src))
	}
	if f.Bytes <= 0 {
		panic(fmt.Sprintf("radio: frame with non-positive size: %v", f))
	}
	f.Src = src
	if c.cfg.QueueLimit > 0 && st.queue.len() >= c.cfg.QueueLimit {
		c.ReleaseFrame(f) // tail drop
		return
	}
	c.counters.FramesQueued++
	st.queue.pushBack(queued{frame: f})
	c.maybeAccess(st)
}

// maybeAccess starts the medium-access procedure if the station is idle
// with work queued.
func (c *Channel) maybeAccess(st *station) {
	if st.accessing || st.transmitting != nil || st.queue.empty() || st.detached || !st.listening {
		return
	}
	st.accessing = true
	wait := c.cfg.DIFS + float64(c.rng.Intn(sim.StreamRadioBackoff, st.cwSlots))*c.cfg.SlotTime
	c.engine.Schedule(wait, st.tryFn)
}

// busyAround reports whether any transmission is audible at p. With the
// spatial index, carrier sense probes only the cells within range of p;
// the brute-force reference scans every active transmission (order-free:
// the result is a bare existence check).
func (c *Channel) busyAround(p geom.Point) bool {
	if c.txIdx != nil {
		return c.txIdx.AnyWithin(p, c.cfg.Range)
	}
	r2 := c.cfg.Range * c.cfg.Range
	for tx := range c.active { //simlint:ordered bare existence check, any order gives the same bool
		if tx.from.Dist2(p) <= r2 {
			return true
		}
	}
	return false
}

// tryTransmit fires after backoff: sense the medium and either transmit
// or defer with a doubled window.
func (c *Channel) tryTransmit(st *station) {
	st.accessing = false
	if st.detached || !st.listening || st.queue.empty() || st.transmitting != nil {
		return
	}
	pos := st.ep.Position()
	if c.busyAround(pos) || len(st.receiving) > 0 {
		// Medium busy: defer, exponentially widening the window.
		c.counters.DeferredAccess++
		st.cwSlots = min(st.cwSlots*2, c.cfg.MaxBackoffSlots)
		c.maybeAccess(st)
		return
	}
	q := st.queue.popFront()
	st.cwSlots = c.cfg.MinBackoffSlots
	c.startTransmission(st, q, pos)
}

func (c *Channel) newTransmission() *transmission {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree[n-1] = nil
		c.txFree = c.txFree[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.endFn = func() { c.endTransmission(tx) }
	return tx
}

func (c *Channel) recycleTransmission(tx *transmission) {
	tx.frame = nil
	tx.sender = nil
	c.txFree = append(c.txFree, tx)
}

func (c *Channel) startTransmission(st *station, q queued, pos geom.Point) {
	air := c.cfg.AirTime(q.frame.Bytes)
	tx := c.newTransmission()
	tx.frame = q.frame
	tx.sender = st
	tx.from = pos
	tx.ends = c.engine.Now() + air + c.cfg.PropDelay
	tx.seq = c.txSeq
	tx.attempt = q.attempt
	c.txSeq++
	st.transmitting = tx
	// Carrier sense reads exactly one of the two structures (busyAround),
	// so only the one in use is maintained.
	if c.txIdx != nil {
		c.txIdx.Add(tx.seq, pos)
	} else {
		c.active[tx] = struct{}{}
	}
	tx.live = len(c.liveTx)
	c.liveTx = append(c.liveTx, tx)
	c.counters.FramesSent++
	c.counters.BytesOnAir += uint64(q.frame.Bytes)
	kc := c.perKind[q.frame.Kind]
	kc.Frames++
	kc.Bytes += uint64(q.frame.Bytes)
	c.perKind[q.frame.Kind] = kc
	if c.Sniffer != nil {
		c.Sniffer(q.frame, c.engine.Now())
	}
	c.updateMode(st)

	// Establish receptions at every listening host in range, in ID
	// order so runs are reproducible. The spatial index yields a sorted
	// superset of the in-range hosts; the exact distance check below is
	// the same one the brute-force path applies to the whole population,
	// so both paths admit the identical receiver set in identical order.
	r2 := c.cfg.Range * c.cfg.Range
	if c.index != nil {
		c.cand = c.index.NearbyAppend(pos, c.cfg.Range, c.cand[:0])
		for _, oid := range c.unindexed {
			c.cand = append(c.cand, spatial.Candidate[*station]{ID: oid, Payload: c.stations[oid]})
		}
		// Filter first, sort second: the range and listening checks are
		// order-free (Position is pure per instant), so applying them
		// before imposing ID order shrinks the sort to the hosts that
		// actually receive — in a duty-cycled protocol, a small fraction
		// of the candidates.
		if cap(c.cpos) < len(c.cand) {
			c.cpos = make([]geom.Point, len(c.cand))
		}
		c.cpos = c.cpos[:len(c.cand)]
		c.keys = c.keys[:0]
		for i := range c.cand {
			cd := &c.cand[i]
			other := cd.Payload
			if other == st || !other.listening || other.detached {
				continue
			}
			// A Sure candidate's whole cell is inside the range disc, so
			// the distance check is settled; its position is only needed
			// when an Interceptor wants the receiver coordinates.
			if !cd.Sure || c.Interceptor != nil {
				otherPos := other.ep.Position()
				if pos.Dist2(otherPos) > r2 {
					continue
				}
				c.cpos[i] = otherPos
			}
			// Pack (ID, candidate index) so a plain integer sort yields
			// the iteration order the brute-force path walks c.order in.
			c.keys = append(c.keys, int64(cd.ID)<<32|int64(i))
		}
		slices.Sort(c.keys)
		tx.rx = c.rxBuf(len(c.keys))
		for _, k := range c.keys {
			i := k & (1<<32 - 1)
			c.admitReception(tx, c.cand[i].Payload, pos, c.cpos[i])
		}
	} else {
		tx.rx = c.rxBuf(len(c.order))
		for _, oid := range c.order {
			other := c.stations[oid]
			if other == st || !other.listening || other.detached {
				continue
			}
			otherPos := other.ep.Position()
			if pos.Dist2(otherPos) > r2 {
				continue
			}
			c.admitReception(tx, other, pos, otherPos)
		}
	}

	c.engine.Schedule(air+c.cfg.PropDelay, tx.endFn)
}

// rxBuf returns a reception buffer with at least the given capacity,
// recycling one retired by endTransmission when it fits. The capacity
// is a hard ceiling: receiving maps hold pointers into the buffer, so
// it must never grow (admitReception enforces this).
func (c *Channel) rxBuf(capacity int) []reception {
	if n := len(c.rxFree); n > 0 {
		buf := c.rxFree[n-1]
		if cap(buf) >= capacity {
			c.rxFree[n-1] = nil
			c.rxFree = c.rxFree[:n-1]
			return buf
		}
	}
	return make([]reception, 0, capacity)
}

// recycleRx returns a transmission's reception buffer to the pool. All
// pointers into it have left the receiving maps by end of transmission;
// entries are zeroed so pooled buffers don't retain frames.
func (c *Channel) recycleRx(tx *transmission) {
	buf := tx.rx
	tx.rx = nil
	for i := range buf {
		buf[i] = reception{}
	}
	c.rxFree = append(c.rxFree, buf[:0])
}

// admitReception records that other hears tx, applying interception and
// collision corruption. tx.rx must have spare capacity: receiving maps
// hold pointers into it, so growth would invalidate them.
func (c *Channel) admitReception(tx *transmission, other *station, from, to geom.Point) {
	if len(tx.rx) == cap(tx.rx) {
		panic("radio: reception buffer capacity underestimated")
	}
	rx := reception{tx: tx, st: other}
	if c.Interceptor != nil && !c.Interceptor(tx.frame, from, to) {
		rx.corrupted = true
		c.counters.Jammed++
	}
	if c.cfg.CollisionsEnabled {
		if other.transmitting != nil {
			// Half-duplex: a transmitting host cannot receive.
			rx.corrupted = true
		}
		if len(other.receiving) > 0 {
			// Overlap: every concurrent reception is corrupted.
			rx.corrupted = true
			for _, o := range other.receiving {
				if !o.corrupted {
					o.corrupted = true
					c.counters.Collisions++
				}
			}
			c.counters.Collisions++
		}
	}
	tx.rx = append(tx.rx, rx)
	other.receiving = append(other.receiving, &tx.rx[len(tx.rx)-1])
	c.updateMode(other)
}

func (c *Channel) endTransmission(tx *transmission) {
	st := tx.sender
	if c.txIdx != nil {
		c.txIdx.Remove(tx.seq, tx.from)
	} else {
		delete(c.active, tx)
	}
	last := len(c.liveTx) - 1
	c.liveTx[tx.live] = c.liveTx[last]
	c.liveTx[tx.live].live = tx.live
	c.liveTx[last] = nil
	c.liveTx = c.liveTx[:last]
	if st.transmitting == tx {
		st.transmitting = nil
	}
	c.updateMode(st)

	dstOK := false
	for i := range tx.rx {
		rx := &tx.rx[i]
		// The reception may have been aborted by sleep/detach, in which
		// case it is no longer in the receiving list.
		if rx.st.dropReceiving(rx) {
			c.updateMode(rx.st)
			if rx.corrupted || rx.st.detached || !rx.st.listening {
				continue
			}
			if tx.frame.Dst == hostid.Broadcast || tx.frame.Dst == rx.st.ep.ID() {
				if tx.frame.Dst == rx.st.ep.ID() {
					dstOK = true
				}
				c.counters.Deliveries++
				rx.st.ep.Deliver(tx.frame)
			}
		}
	}

	// Emulated ACK/timeout loop: retry failed unicast frames. A retried
	// frame stays alive on the queue; any other frame is done with the
	// air and, if pool-owned, returns to the pool (Deliver/TxFailed run
	// before the release and must not retain the frame — the Protocol
	// contract).
	retried := false
	if tx.frame.Dst.IsUnicast() && !dstOK && !st.detached && st.listening {
		if tx.attempt < c.cfg.MACRetries {
			c.counters.Retries++
			st.cwSlots = min(st.cwSlots*2, c.cfg.MaxBackoffSlots)
			// Retries go to the queue front to preserve ordering.
			st.queue.pushFront(queued{frame: tx.frame, attempt: tx.attempt + 1})
			retried = true
		} else {
			c.counters.UnicastFailed++
			// Link-layer feedback: tell the sender its frame died, as
			// a real 802.11 interface reports exhausted ACK retries.
			if fb, ok := st.ep.(TxFeedback); ok {
				fb.TxFailed(tx.frame)
			}
		}
	}
	if !retried {
		c.ReleaseFrame(tx.frame)
	}
	c.recycleRx(tx)
	c.recycleTransmission(tx)
	c.maybeAccess(st)
}

// NewFrame returns a frame owned by the channel's pool, initialized with
// the given header fields and payload. The channel reclaims the struct
// once it is done with the air (delivered, dropped, or failed); per the
// node.Protocol contract receivers must not retain the frame past the
// Receive call, though payloads may be shared. Frames built with a plain
// composite literal keep working — ReleaseFrame ignores them.
func (c *Channel) NewFrame(kind string, src, dst hostid.ID, bytes int, payload any) *Frame {
	var f *Frame
	if n := len(c.frameFree); n > 0 {
		f = c.frameFree[n-1]
		c.frameFree[n-1] = nil
		c.frameFree = c.frameFree[:n-1]
	} else {
		f = &Frame{pooled: true}
	}
	f.Kind, f.Src, f.Dst, f.Bytes, f.Payload = kind, src, dst, bytes, payload
	f.leased = true
	c.counters.FramesPooled++
	return f
}

// ReleaseFrame returns a pool-owned frame (see NewFrame). Frames not
// created by NewFrame are left alone.
func (c *Channel) ReleaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	if !f.leased {
		panic(fmt.Sprintf("radio: double ReleaseFrame of %v", f))
	}
	f.leased = false
	f.Payload = nil
	c.counters.FramesReleased++
	c.frameFree = append(c.frameFree, f)
}

// OutstandingFrames is the number of pooled frames currently checked
// out (leased by NewFrame and not yet released). During a run it counts
// queued and in-flight frames; after Shutdown it must be zero — any
// remainder is a frame some component minted and lost, the runtime
// cross-check of the framelease static analyzer.
func (c *Channel) OutstandingFrames() int {
	return int(c.counters.FramesPooled - c.counters.FramesReleased)
}

// Shutdown returns every frame the channel still holds — queued at
// stations or in flight on the air — to the pool. Call it once after
// the engine has stopped (pending end-of-transmission events never fire
// past the horizon, so their frames are reclaimed here); the channel
// must not carry traffic afterwards.
func (c *Channel) Shutdown() {
	for _, id := range c.order {
		st := c.stations[id]
		for !st.queue.empty() {
			c.ReleaseFrame(st.queue.popFront().frame)
		}
	}
	for i, tx := range c.liveTx {
		c.ReleaseFrame(tx.frame)
		tx.frame = nil
		c.liveTx[i] = nil
	}
	c.liveTx = c.liveTx[:0]
}

// TxFeedback is implemented by endpoints that want link-layer failure
// notifications for their unicast frames (the 802.11 "max retries
// exceeded" indication routing protocols use for route repair).
type TxFeedback interface {
	TxFailed(f *Frame)
}

// AppendNearby appends to dst the ID of every attached host that may lie
// within r of p — a superset of the hosts truly there, in no particular
// order — and returns it with ok == true. It reads the channel's spatial
// index (plus the unindexed side list) and changes nothing. Without an
// index (Config.BruteForce) it returns dst unchanged and ok == false,
// and the caller must sweep the population itself.
func (c *Channel) AppendNearby(p geom.Point, r float64, dst []hostid.ID) ([]hostid.ID, bool) {
	if c.index == nil {
		return dst, false
	}
	c.nearCand = c.index.NearbyAppend(p, r, c.nearCand[:0])
	for _, cd := range c.nearCand {
		dst = append(dst, cd.ID)
	}
	return append(dst, c.unindexed...), true
}

// InRange reports whether two attached hosts are currently within
// transmission range of each other. Protocol code uses it only through
// higher-level abstractions; tests use it directly.
func (c *Channel) InRange(a, b hostid.ID) bool {
	sa, oka := c.stations[a]
	sb, okb := c.stations[b]
	if !oka || !okb {
		return false
	}
	return sa.ep.Position().Dist2(sb.ep.Position()) <= c.cfg.Range*c.cfg.Range
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
