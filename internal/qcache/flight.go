package qcache

import (
	"context"
	"sync"
)

// DefaultFlightBuffer bounds the broadcast history one flight may
// accumulate before it stops admitting new followers.
const DefaultFlightBuffer = 1 << 20 // 1 MiB

// Frame is one recorded streaming frame: an SSE event name and the
// leader's already-rendered bytes for it, which this package never looks
// inside. Frames are replayed verbatim, which is what makes a follower's
// stream event-for-event identical to its leader's. Publish keeps Data
// without copying it: a publisher must never rewrite those bytes while a
// follower can still read them, i.e. until the last follower's Replay has
// returned.
type Frame struct {
	Event string
	Data  []byte
}

// Role is a caller's position in a flight.
type Role int

// Join outcomes.
const (
	// RoleLeader means the caller opened the flight: it must Publish
	// every frame it streams and call Finish exactly once.
	RoleLeader Role = iota
	// RoleFollower means an identical request is already in flight: the
	// caller should Replay the leader's stream instead of orchestrating.
	RoleFollower
	// RoleBypass means a flight exists but is closed to new followers
	// (its history buffer overflowed): the caller runs alone,
	// uncoalesced and unpublished.
	RoleBypass
)

// Group deduplicates concurrent identical requests. All methods are safe
// for concurrent use; a nil *Group hands every caller RoleBypass.
type Group struct {
	maxBytes int

	mu      sync.Mutex
	flights map[string]*Flight
}

// NewGroup builds a Group whose flights buffer at most maxBufferBytes of
// frame history (non-positive means DefaultFlightBuffer).
func NewGroup(maxBufferBytes int) *Group {
	if maxBufferBytes <= 0 {
		maxBufferBytes = DefaultFlightBuffer
	}
	return &Group{maxBytes: maxBufferBytes, flights: make(map[string]*Flight)}
}

// Join enters the flight for key, creating it if absent. The returned
// role tells the caller whether it leads, follows, or must bypass; the
// flight is nil only for RoleBypass.
func (g *Group) Join(key string) (*Flight, Role) {
	if g == nil {
		return nil, RoleBypass
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		f.mu.Lock()
		sealed := f.sealed
		if !sealed {
			f.followers++
		}
		f.mu.Unlock()
		if sealed {
			return nil, RoleBypass
		}
		return f, RoleFollower
	}
	f := &Flight{g: g, key: key}
	if hist, _ := histories.Get().(*[]Frame); hist != nil {
		f.frames, f.hist = *hist, hist
	}
	f.cond = sync.NewCond(&f.mu)
	g.flights[key] = f
	return f, RoleLeader
}

// histories recycles the (emptied) frame arrays of flights that finished
// without a follower — nearly every flight: coalescing is rare.
var histories sync.Pool

// Flight is one in-progress request shared between a leader and its
// followers.
type Flight struct {
	g   *Group
	key string

	mu        sync.Mutex
	cond      *sync.Cond
	frames    []Frame
	hist      *[]Frame // the histories entry frames came from, if any
	bytes     int
	sealed    bool // history overflowed: no new followers may join
	done      bool
	result    any
	followers int
}

// Followers reports how many followers have joined so far.
func (f *Flight) Followers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.followers
}

// Published reports how many frames the flight holds for replay. A
// follower that has consumed that many has caught up with its leader and
// is about to wait for the next one.
func (f *Flight) Published() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.frames)
}

// Publish appends one frame to the broadcast buffer and wakes every
// follower. When the buffer bound is exceeded the flight seals — already
// attached followers keep receiving frames (they need the complete
// stream), but no new follower may join, bounding per-flight memory by
// the bound plus one frame times the attach window. A flight that seals
// with no followers attached has no consumer and can never gain one, so
// its history is dropped and buffering stops — a leader-only stream
// costs O(1) memory past the bound, not O(stream).
func (f *Flight) Publish(fr Frame) {
	f.mu.Lock()
	if f.sealed && f.followers == 0 {
		f.mu.Unlock()
		return
	}
	f.frames = append(f.frames, fr)
	f.bytes += len(fr.Event) + len(fr.Data)
	if f.bytes > f.g.maxBytes {
		f.sealed = true
		if f.followers == 0 {
			f.frames = nil
			f.bytes = 0
		}
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Finish completes the flight: the result becomes visible to every
// follower, the flight leaves the group (a later identical request
// starts fresh), and the buffered history is released once the last
// follower drains it. A flight without followers cannot gain one now
// (they join under g.mu, before the key is deleted), so its history is
// cleared, not to pin the publisher's buffers, and pooled.
func (f *Flight) Finish(result any) {
	f.g.mu.Lock()
	delete(f.g.flights, f.key)
	f.g.mu.Unlock()
	f.mu.Lock()
	f.sealed = true
	f.done = true
	f.result = result
	if f.followers == 0 && cap(f.frames) > 0 {
		clear(f.frames)
		hist := f.hist
		if hist == nil {
			hist = new([]Frame)
		}
		*hist = f.frames[:0]
		f.frames, f.hist, f.bytes = nil, nil, 0
		histories.Put(hist)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Replay streams the flight to fn: buffered history first, then live
// frames as the leader publishes them. It blocks until the flight
// finishes (returning the leader's result and true), until ctx ends, or
// until fn returns an error (both returning false). fn runs without the
// flight lock held, so it may write to a network connection.
func (f *Flight) Replay(ctx context.Context, fn func(Frame) error) (any, bool) {
	// cond.Wait cannot select on ctx; a cancel callback converts context
	// death into a broadcast the wait loop re-checks.
	stop := context.AfterFunc(ctx, func() { f.cond.Broadcast() })
	defer stop()

	next := 0
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for next < len(f.frames) {
			fr := f.frames[next]
			next++
			f.mu.Unlock()
			err := fn(fr)
			f.mu.Lock()
			if err != nil {
				return nil, false
			}
		}
		if f.done {
			return f.result, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
		f.cond.Wait()
	}
}
