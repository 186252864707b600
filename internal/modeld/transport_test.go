package modeld

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDefaultClientSharedOnce pins the New(base) contract: the tuned
// default client is built exactly once and shared across clients, and
// WithHTTPClient overrides it.
func TestDefaultClientSharedOnce(t *testing.T) {
	a := New("http://127.0.0.1:1")
	b := New("http://127.0.0.1:2")
	if a.hc != b.hc {
		t.Fatal("option-less clients must share one default client")
	}
	if a.hc == http.DefaultClient {
		t.Fatal("default client must be the tuned transport, not http.DefaultClient")
	}
	tr, ok := a.hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default transport is %T, want *http.Transport", a.hc.Transport)
	}
	if !tr.DisableCompression {
		t.Fatal("default transport must not ask the daemon for gzip")
	}
	if tr.MaxIdleConnsPerHost <= http.DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, want more than net/http's default %d",
			tr.MaxIdleConnsPerHost, http.DefaultMaxIdleConnsPerHost)
	}
	own := &http.Client{}
	if c := New("http://127.0.0.1:3", WithHTTPClient(own)); c.hc != own {
		t.Fatal("WithHTTPClient must be used as-is")
	}
	// A nil override keeps the default rather than nil-ing the client.
	if c := New("http://127.0.0.1:4", WithHTTPClient(nil)); c.hc != a.hc {
		t.Fatal("WithHTTPClient(nil) must keep the shared default")
	}
}

// TestDefaultClientReusesConnections proves the fan-out tuning end to
// end: a wave of concurrent requests — one per simulated model, more
// than http.DefaultClient's 2 idle connections per host — is followed by
// a second wave that dials NO new TCP connections, because the tuned
// transport kept every stream's connection idle for reuse. Dials are
// counted by wrapping DialContext on a clone of the tuned transport, so
// the assertion is race-free against server-side keep-alive state.
func TestDefaultClientReusesConnections(t *testing.T) {
	const models = 6
	var wave sync.WaitGroup
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request of a wave open until all have connected, so
		// the wave genuinely occupies `models` distinct connections.
		wave.Done()
		wave.Wait()
		w.Write([]byte(`{"version":"test"}`))
	}))
	defer srv.Close()

	var dials atomic.Int64
	counting := defaultHTTPClient().Transport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	counting.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	client := New(srv.URL, WithHTTPClient(&http.Client{Transport: counting}))

	runWave := func() {
		wave.Add(models)
		var wg sync.WaitGroup
		for i := 0; i < models; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Tags(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	runWave()
	opened := dials.Load()
	if opened < models {
		t.Fatalf("first wave dialed %d connections, want %d concurrent", opened, models)
	}
	// Let the transport park the wave's connections in the idle pool.
	time.Sleep(50 * time.Millisecond)
	runWave()
	if after := dials.Load(); after != opened {
		t.Fatalf("second wave dialed %d new connections; tuned transport should reuse all %d idle ones",
			after-opened, opened)
	}
}
