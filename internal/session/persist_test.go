package session

import (
	"testing"
	"time"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	s := testStore(clock)
	a := s.Create("first")
	b := s.Create("second")
	if _, err := s.Append(a.ID, Message{Role: RoleUser, Content: "hello there"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(a.ID, Message{Role: RoleAssistant, Content: "hi", Model: "m1"}); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if len(st.Sessions) != 2 || st.NextID != 2 {
		t.Fatalf("snapshot: %d sessions, nextID %d", len(st.Sessions), st.NextID)
	}

	fresh := testStore(clock)
	if got := fresh.Restore(st); got != 2 {
		t.Fatalf("restored %d sessions, want 2", got)
	}
	got, err := fresh.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Messages) != 2 || got.Messages[1].Model != "m1" || got.TurnCount != 2 {
		t.Fatalf("restored session wrong: %+v", got)
	}
	if _, err := fresh.Get(b.ID); err != nil {
		t.Fatal(err)
	}
	// The id counter moved forward: new sessions don't collide.
	c := fresh.Create("third")
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("restored store reissued id %s", c.ID)
	}
}

func TestRestoreKeepsLiveSessions(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	s := testStore(clock)
	a := s.Create("original")
	st := s.Snapshot()
	if _, err := s.Append(a.ID, Message{Role: RoleUser, Content: "newer than the snapshot"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Restore(st); got != 0 {
		t.Fatalf("restore overwrote %d live sessions", got)
	}
	live, err := s.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Messages) != 1 {
		t.Fatal("restore rolled back a live session")
	}
}
