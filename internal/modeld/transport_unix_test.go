//go:build unix

package modeld

import (
	"context"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// arrived waits until n bytes have arrived on conn's socket, unread.
func arrived(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	rc, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	peek := make([]byte, n)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
		rc.Control(func(fd uintptr) { got, _, _ = syscall.Recvfrom(int(fd), peek, syscall.MSG_PEEK|syscall.MSG_DONTWAIT) })
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d bytes arrived", got, n)
		}
	}
}

// TestEarlyClosedSessionKeepsItsConnection: a session closed after
// draining part of its tokens, once its daemon had written the rest of the
// reply, ends as if it had been read to its done line — one connection
// for every such session, each counted ok, the daemon's spans grafted —
// since Close decodes what has arrived before it gives up on the rest.
// A session whose daemon is still generating has its connection closed,
// and the daemon sees the hang-up.
func TestEarlyClosedSessionKeepsItsConnection(t *testing.T) {
	d := newRawDaemon(t)
	tr := newHopTransport()
	dials := countDials(tr)
	tel := telemetry.New(telemetry.Options{})
	c := hopClient(d.url, tr, WithTelemetry(tel))
	rest := chunk(lineLo) + chunk(strings.TrimSuffix(string(lastBatchLine("!", []int{3}, nil,
		llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{1, 2, 3}, EvalCount: 3}, testSpans())), "\n")) +
		"0\r\n\r\n"
	const sessions = 5
	ctx, root := telemetry.NewTracer("test").StartRootFrom(context.Background(), "query", testTraceID, "00000000000000ff")
	for i := 0; i < sessions; i++ {
		more := make(chan struct{})
		d.replies <- func(conn *net.TCPConn) bool {
			reply(false, ndjsonHead, chunk(lineHel))(conn)
			select {
			case <-more:
				return reply(false, rest)(conn)
			case <-d.done:
				return true
			}
		}
		st, err := c.OpenStream(ctx, hopReq)
		if err != nil {
			t.Fatal(err)
		}
		if ch, err := st.Next(context.Background(), 1); err != nil || ch.Text != "Hel" || ch.Done {
			t.Fatalf("session %d: first slice = %+v, %v", i, ch, err)
		}
		close(more)
		arrived(t, st.(*clientStream).pc.conn, len(rest))
		st.Close()
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d sessions closed early dialed %d connections, want 1", sessions, n)
	}
	if got := tel.ClientRequests.Value("generate_stream", "ok"); got != sessions {
		t.Fatalf("requests{generate_stream,ok} = %v, want %d", got, sessions)
	}
	grafted := 0
	for _, r := range root.Records() {
		if r.Name == "engine.generate" || r.Name == "modeld.handle_generate" {
			grafted++
		}
	}
	if want := sessions * len(testSpans()); grafted != want {
		t.Fatalf("%d daemon spans grafted, want %d", grafted, want)
	}

	d.replies <- reply(false, ndjsonHead, chunk(lineHel))
	st, err := c.OpenStream(context.Background(), hopReq)
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := st.Next(context.Background(), 1); err != nil || ch.Text != "Hel" {
		t.Fatalf("still decoding: first slice = %+v, %v", ch, err)
	}
	st.Close()
	d.awaitHangUp(t, d.lastConn())
	if got := tel.ClientRequests.Value("generate_stream", "canceled"); got != 1 {
		t.Fatalf("requests{generate_stream,canceled} = %v, want 1", got)
	}
}
