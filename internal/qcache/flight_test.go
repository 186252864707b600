package qcache

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestFlightLeaderThenFollower(t *testing.T) {
	g := NewGroup(0)
	leader, role := g.Join("k")
	if role != RoleLeader {
		t.Fatalf("first Join role = %v, want RoleLeader", role)
	}
	follower, role := g.Join("k")
	if role != RoleFollower || follower != leader {
		t.Fatalf("second Join = (%p, %v), want the leader's flight as RoleFollower", follower, role)
	}
	if n := leader.Followers(); n != 1 {
		t.Fatalf("Followers = %d, want 1", n)
	}

	published := []Frame{
		{Event: "round", Data: []byte(`{"n":1}`)},
		{Event: "chunk", Data: []byte(`{"text":"hi"}`)},
		{Event: "result", Data: []byte(`{"answer":"hi"}`)},
	}
	var got []Frame
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, ok := follower.Replay(context.Background(), func(fr Frame) error {
			got = append(got, fr)
			return nil
		})
		if !ok || v != "the result" {
			t.Errorf("Replay = (%v, %v), want (the result, true)", v, ok)
		}
	}()

	for _, fr := range published {
		leader.Publish(fr)
	}
	leader.Finish("the result")
	<-done
	if !reflect.DeepEqual(got, published) {
		t.Fatalf("replayed frames = %v, want %v", got, published)
	}
}

func TestFlightMidJoinSeesFullHistory(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	leader.Publish(Frame{Event: "a", Data: []byte("1")})
	leader.Publish(Frame{Event: "b", Data: []byte("2")})

	// A follower joining mid-stream still gets the buffered history.
	f, role := g.Join("k")
	if role != RoleFollower {
		t.Fatalf("mid-stream Join role = %v", role)
	}
	var events []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Replay(context.Background(), func(fr Frame) error {
			events = append(events, fr.Event)
			return nil
		})
	}()
	leader.Publish(Frame{Event: "c", Data: []byte("3")})
	leader.Finish(nil)
	<-done
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

// TestFlightPublishedMarksCaughtUp: a follower that counts what it has
// consumed against Published knows when it is about to wait for its
// leader — after the whole buffered history, not after each frame of it.
func TestFlightPublishedMarksCaughtUp(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	leader.Publish(Frame{Event: "a", Data: []byte("1")})
	leader.Publish(Frame{Event: "b", Data: []byte("2")})
	f, _ := g.Join("k")
	caughtUp := make(chan int, 4) // one send per frame at most, four frames at most
	done := make(chan struct{})
	go func() {
		defer close(done)
		consumed := 0
		f.Replay(context.Background(), func(Frame) error {
			if consumed++; consumed >= f.Published() {
				caughtUp <- consumed
			}
			return nil
		})
	}()
	if got := <-caughtUp; got != 2 {
		t.Fatalf("caught up after %d frames of a history of 2", got)
	}
	leader.Publish(Frame{Event: "c", Data: []byte("3")})
	if got := <-caughtUp; got != 3 {
		t.Fatalf("caught up after %d frames, want 3", got)
	}
	leader.Finish(nil)
	<-done
}

func TestFlightJoinAfterFinishStartsFresh(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	leader.Finish("done")
	f, role := g.Join("k")
	if role != RoleLeader {
		t.Fatalf("Join after Finish role = %v, want a fresh RoleLeader", role)
	}
	if f == leader {
		t.Fatal("Join after Finish returned the finished flight")
	}
}

func TestFlightBufferOverflowSeals(t *testing.T) {
	g := NewGroup(16) // tiny bound
	leader, _ := g.Join("k")
	leader.Publish(Frame{Event: "chunk", Data: []byte("0123456789abcdef")})
	if _, role := g.Join("k"); role != RoleBypass {
		t.Fatalf("Join on an overflowed flight = %v, want RoleBypass", role)
	}
	// A pre-attached follower keeps receiving past the seal.
	g2 := NewGroup(16)
	leader2, _ := g2.Join("k")
	f, _ := g2.Join("k")
	var n int
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Replay(context.Background(), func(Frame) error { n++; return nil })
	}()
	for i := 0; i < 5; i++ {
		leader2.Publish(Frame{Event: "chunk", Data: []byte("0123456789abcdef")})
	}
	leader2.Finish(nil)
	<-done
	if n != 5 {
		t.Fatalf("sealed-flight follower got %d frames, want 5", n)
	}
}

func TestFlightLeaderOnlySealDropsHistory(t *testing.T) {
	g := NewGroup(16) // tiny bound
	leader, _ := g.Join("k")
	// No follower ever joins: once the bound trips, the buffer must be
	// released and later frames must not re-accumulate — a leader-only
	// flight's memory is O(1) past the bound, not O(stream).
	for i := 0; i < 100; i++ {
		leader.Publish(Frame{Event: "chunk", Data: []byte("0123456789abcdef")})
	}
	leader.mu.Lock()
	frames, bytes := len(leader.frames), leader.bytes
	leader.mu.Unlock()
	if frames != 0 || bytes != 0 {
		t.Fatalf("sealed leader-only flight still buffers %d frames (%d bytes), want 0", frames, bytes)
	}
	leader.Finish(nil)
}

func TestFlightReplayContextCancel(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	f, _ := g.Join("k")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var ok bool
	go func() {
		defer close(done)
		_, ok = f.Replay(ctx, func(Frame) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond) // let Replay park on the cond
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Replay did not return after context cancellation")
	}
	if ok {
		t.Fatal("canceled Replay reported completion")
	}
	leader.Finish(nil) // leader must still be able to finish cleanly
}

func TestFlightReplayStopsOnWriteError(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	f, _ := g.Join("k")
	leader.Publish(Frame{Event: "a", Data: []byte("1")})
	leader.Publish(Frame{Event: "b", Data: []byte("2")})
	calls := 0
	_, ok := f.Replay(context.Background(), func(Frame) error {
		calls++
		return fmt.Errorf("broken pipe")
	})
	if ok || calls != 1 {
		t.Fatalf("Replay = (ok=%v, calls=%d), want failure after the first frame", ok, calls)
	}
	leader.Finish(nil)
}

func TestNilGroupBypasses(t *testing.T) {
	var g *Group
	f, role := g.Join("k")
	if role != RoleBypass || f != nil {
		t.Fatalf("nil Group Join = (%v, %v), want (nil, RoleBypass)", f, role)
	}
}

func TestFlightConcurrentFollowers(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	const followers = 8
	var wg sync.WaitGroup
	counts := make([]int, followers)
	for i := 0; i < followers; i++ {
		f, role := g.Join("k")
		if role != RoleFollower {
			t.Fatalf("follower %d role = %v", i, role)
		}
		wg.Add(1)
		go func(i int, f *Flight) {
			defer wg.Done()
			f.Replay(context.Background(), func(Frame) error { counts[i]++; return nil })
		}(i, f)
	}
	const frames = 50
	for i := 0; i < frames; i++ {
		leader.Publish(Frame{Event: "chunk", Data: []byte("x")})
	}
	leader.Finish(nil)
	wg.Wait()
	for i, n := range counts {
		if n != frames {
			t.Fatalf("follower %d saw %d frames, want %d", i, n, frames)
		}
	}
}

// TestFlightFollowerSurvivesHistoryRecycling: leader-only flights give
// their history arrays back at Finish for the next leader, and a flight
// with a follower must not. A follower attached before Finish and parked
// mid-replay while 100 leader-only flights lead, publish and recycle
// concurrently still replays its leader's frames byte for byte.
func TestFlightFollowerSurvivesHistoryRecycling(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("followed")
	f, role := g.Join("followed")
	if role != RoleFollower {
		t.Fatalf("second Join role = %v, want RoleFollower", role)
	}
	var want []Frame
	for i := 0; i < 20; i++ {
		fr := Frame{Event: "chunk", Data: []byte(fmt.Sprintf(`{"n":%d}`, i))}
		want = append(want, fr)
		leader.Publish(fr)
	}
	parked, resume := make(chan struct{}), make(chan struct{})
	var got []Frame
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Replay(context.Background(), func(fr Frame) error {
			if len(got) == 1 {
				close(parked)
				<-resume
			}
			got = append(got, Frame{Event: fr.Event, Data: append([]byte(nil), fr.Data...)})
			return nil
		})
	}()
	<-parked
	leader.Finish("the result")

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, role := g.Join(fmt.Sprintf("alone-%d", i))
			if role != RoleLeader {
				t.Errorf("leader-only flight %d: role %v", i, role)
				return
			}
			for j := 0; j < 30; j++ {
				lo.Publish(Frame{Event: "overwrite", Data: []byte("not the followed flight's bytes")})
			}
			lo.Finish(nil)
		}(i)
	}
	wg.Wait()
	close(resume)
	<-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follower replayed %d frames %v, want its leader's %d %v", len(got), got, len(want), want)
	}
}

// TestFlightLeaderOnlyHistoryIsCleared: a leader-only flight drops its
// frames at Finish, and the array it hands on holds no publisher's bytes.
func TestFlightLeaderOnlyHistoryIsCleared(t *testing.T) {
	g := NewGroup(0)
	leader, _ := g.Join("k")
	leader.Publish(Frame{Event: "chunk", Data: []byte("held")})
	leader.Finish(nil)
	if leader.frames != nil {
		t.Fatalf("finished leader-only flight still holds %d frames", len(leader.frames))
	}
	next, _ := g.Join("k2")
	if len(next.frames) != 0 {
		t.Fatalf("a new leader starts with %d frames", len(next.frames))
	}
	for _, fr := range next.frames[:cap(next.frames)] {
		if fr.Data != nil || fr.Event != "" {
			t.Fatal("a recycled history still pins a publisher's frame")
		}
	}
	next.Finish(nil)
}
