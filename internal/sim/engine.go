// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which makes runs exactly reproducible: given the same seed and the same
// sequence of Schedule calls, every run produces the identical trace.
//
// Time is a float64 number of seconds since the start of the simulation.
// All protocol and radio code in this repository runs inside engine events;
// nothing uses wall-clock time.
//
// # Event recycling
//
// Fired and canceled events return to a free list and are reused by later
// Schedule calls, so the steady-state path allocates nothing. Schedule and
// At therefore hand out a Handle — the event pointer plus the event's
// generation at scheduling time — instead of a raw pointer. Every recycle
// bumps the generation, so a stale Handle (kept after its event fired or
// was canceled and collected) no longer matches and Cancel, Reschedule and
// When on it are harmless no-ops rather than corruption of whatever event
// now occupies the recycled slot.
//
// # Schedulers
//
// Two interchangeable queue implementations order the events: a binary
// heap (the original implementation, kept byte-identical in behavior as
// the reference — the Radio.BruteForce of the event core) and a calendar
// queue (the default) that is O(1) amortized per operation, the same
// structure ns-2 uses. Both pop in exactly (when, seq) order, so runs are
// byte-identical across schedulers; internal/runner's equivalence test
// and the cross-scheduler property test in this package enforce that.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in seconds.
type Time = float64

// event is a scheduled callback. The callback runs with the engine clock
// set to the event's timestamp. Events are pooled: after firing (or being
// canceled and collected) the struct is recycled for a later Schedule
// call under a bumped generation.
type event struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	fn   func()
	gen  uint64 // incremented on every recycle; Handles must match it

	// slot is scheduler-private bookkeeping: the heap index for the heap
	// scheduler, the bucket index for the calendar queue; -1 when the
	// event is not queued.
	slot int
	// vidx is the calendar queue's virtual bucket index, computed once
	// per push. Both bucket membership and the window test derive from
	// it, so pop order never depends on float boundary rounding.
	vidx     int64
	canceled bool // canceled events stay queued but do not fire
}

// Handle identifies a scheduled event: the pooled event plus the
// generation it had when scheduled. The zero Handle refers to no event.
// A Handle goes stale once its event fires or is collected after Cancel;
// stale Handles are detected by the generation check and every operation
// on them is a no-op.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still names the incarnation it was
// created for (the event is queued: fired/collected events are recycled
// immediately, which bumps the generation).
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Pending reports whether the event is still queued to fire: not yet
// fired, not canceled, not stale.
func (h Handle) Pending() bool { return h.live() && !h.ev.canceled }

// When returns the simulation time at which the event fires. It returns
// 0 when the handle is stale (the event already fired or was collected).
func (h Handle) When() Time {
	if !h.live() {
		return 0
	}
	return h.ev.when
}

// Canceled reports whether Cancel was called on the (still queued)
// event. Stale handles report false.
func (h Handle) Canceled() bool { return h.live() && h.ev.canceled }

// scheduler is the event queue contract shared by the heap reference and
// the calendar queue. Push/pop maintain an exact (when, seq) total
// order; remove detaches a queued event (the Reschedule fast path);
// sweep drops every canceled event in one pass (heap compaction).
type scheduler interface {
	push(ev *event)
	// popLE removes and returns the minimum event if its timestamp is
	// ≤ limit, else nil (leaving the queue untouched).
	popLE(limit Time) *event
	remove(ev *event)
	size() int
	sweep(recycle func(*event))
}

// SchedulerKind selects the event queue implementation.
type SchedulerKind int

const (
	// Calendar is the default: a calendar queue, O(1) amortized per
	// event with bucket-width adaptation (the ns-2 scheduler).
	Calendar SchedulerKind = iota
	// Heap is the binary-heap reference implementation. It exists as
	// the oracle for the equivalence tests and for debugging, exactly
	// like Radio.BruteForce on the radio path.
	Heap
)

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	sched   scheduler
	nextSeq uint64
	running bool
	stopped bool

	// processed counts events that actually fired (excludes canceled).
	processed uint64
	// canceled counts queued events whose Cancel flag is set; it drives
	// queue compaction so timer-heavy protocols cannot bloat the queue.
	canceled int

	// free recycles fired/canceled event structs; see the package note
	// on event recycling.
	free []*event
}

// compactFloor is the queue size below which Cancel never compacts:
// tiny queues are cheap to carry and compacting them would just churn.
const compactFloor = 64

// NewEngine returns an engine with the clock at zero, an empty queue,
// and the default (calendar queue) scheduler.
func NewEngine() *Engine {
	return NewEngineWith(Calendar)
}

// NewEngineWith returns an engine using the given scheduler. Both kinds
// produce byte-identical runs; Heap is the reference implementation.
func NewEngineWith(kind SchedulerKind) *Engine {
	e := &Engine{}
	switch kind {
	case Heap:
		e.sched = &heapQueue{}
	default:
		e.sched = newCalendarQueue()
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of queued events, including canceled ones
// that have not yet been discarded.
func (e *Engine) Pending() int { return e.sched.size() }

// Schedule queues fn to run after delay seconds. A negative delay is an
// error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute time when. Scheduling in the past panics.
func (e *Engine) At(when Time, fn func()) Handle {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: At with time %v in the past of %v", when, e.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.when, ev.seq, ev.fn = when, e.nextSeq, fn
	e.nextSeq++
	e.sched.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// recycle returns a no-longer-queued event to the free list. The
// generation bump is what invalidates every outstanding Handle.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.slot = -1
	e.free = append(e.free, ev)
}

// Cancel marks an event so it will not fire. Canceling an event that has
// already fired (a stale handle — detected by the generation check), or
// canceling twice, is a harmless no-op.
//
// Canceled events normally stay queued until they reach the queue head
// and are dropped lazily; when they come to outnumber live events,
// Cancel compacts the whole queue in one O(n) pass so Pending() and
// queue operations track the live population, not the churn.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	e.canceled++
	if e.canceled > e.sched.size()/2 && e.sched.size() >= compactFloor {
		e.compact()
	}
}

// Reschedule moves a still-pending event to fire after delay seconds
// from now, reusing its queue slot instead of canceling and allocating a
// fresh event. The rescheduled firing takes a new sequence number, so it
// orders among equal timestamps exactly as a cancel-plus-Schedule would.
// It reports false — and does nothing — when the handle is stale or the
// event was canceled; the caller should fall back to Schedule.
func (e *Engine) Reschedule(h Handle, delay Time) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return false
	}
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Reschedule with invalid delay %v at t=%v", delay, e.now))
	}
	e.sched.remove(ev)
	ev.when = e.now + delay
	ev.seq = e.nextSeq
	e.nextSeq++
	e.sched.push(ev)
	return true
}

// compact removes every canceled event from the queue in one pass.
// Ordering of the survivors is unaffected: (when, seq) is a total order,
// so the pop sequence is a pure function of the queued member set.
func (e *Engine) compact() {
	e.sched.sweep(e.recycle)
	e.canceled = 0
}

// Stop requests that Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the queue is empty, the
// clock would pass until, or Stop is called. Events with timestamp exactly
// equal to until still fire. It returns the final clock value, which is
// until when the run ended because simulated time was exhausted.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false

	for !e.stopped {
		ev := e.sched.popLE(until)
		if ev == nil {
			break
		}
		if ev.canceled {
			e.canceled--
			e.recycle(ev)
			continue
		}
		e.now = ev.when
		e.processed++
		fn := ev.fn
		// Recycle before running: the callback may Schedule and get
		// this very struct back, under a new generation.
		e.recycle(ev)
		fn()
	}
	if !e.stopped && e.now < until && !math.IsInf(until, 1) {
		e.now = until
	}
	return e.now
}

// RunAll processes every queued event regardless of timestamp. It is meant
// for tests; simulations should use Run with an explicit horizon.
func (e *Engine) RunAll() Time {
	return e.Run(math.Inf(1))
}
