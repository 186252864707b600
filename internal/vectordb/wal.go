package vectordb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"sync"
	"time"
)

// Write-ahead log. Each record is one logical write (a multi-document
// upsert or delete) framed as
//
//	[4B payload length LE][4B CRC32(payload) LE][JSON payload]
//
// Appends go to the OS immediately; durability comes from fsync, whose
// policy is configurable (SyncPolicy). Under SyncBatch a background
// group-commit worker accumulates concurrent appends for a short window
// and retires them with one fsync, so write throughput is bounded by the
// disk's sync rate times the batch size, not divided by it.
//
// Replay (scanWAL) stops at the first frame that is short, fails its
// CRC, or doesn't decode: that is the torn tail of a crashed write, and
// everything before it is exactly the acknowledged prefix. openWAL
// truncates the tail away before appending again.

// SyncPolicy controls when a WAL append becomes durable.
type SyncPolicy string

// Supported sync policies.
const (
	// SyncBatch groups concurrent appends into one fsync (default).
	SyncBatch SyncPolicy = "batch"
	// SyncAlways fsyncs every append before acknowledging it.
	SyncAlways SyncPolicy = "always"
	// SyncNone never fsyncs; durability is whatever the OS page cache
	// delivers. Process crashes lose nothing, machine crashes may.
	SyncNone SyncPolicy = "none"
)

// ParseSyncPolicy validates a policy string (the -wal-sync flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncBatch, SyncAlways, SyncNone:
		return SyncPolicy(s), nil
	}
	return "", errors.New(`vectordb: sync policy must be "batch", "always", or "none"`)
}

// WAL record operations.
const (
	walOpUpsert = "upsert"
	walOpDelete = "delete"
)

// walRecord is the JSON payload of one frame. Upsert documents carry an
// embedding only when the caller supplied one explicitly; text-embedded
// documents are re-encoded on replay (encoders are deterministic by
// contract), which keeps the log a fraction of the index size.
type walRecord struct {
	Op   string     `json:"op"`
	Docs []Document `json:"docs,omitempty"`
	IDs  []string   `json:"ids,omitempty"`
}

const walFrameHeader = 8

var errWALClosed = errors.New("wal closed")

// walAck is the durability handle an append returns: wait blocks until
// the record's bytes are synced per the policy.
type walAck struct {
	ch       chan error
	err      error
	resolved bool
}

func ackDone(err error) *walAck { return &walAck{err: err, resolved: true} }

func (a *walAck) wait() error {
	if a.resolved {
		return a.err
	}
	return <-a.ch
}

// batchInterval is the group-commit accumulation window under SyncBatch.
const batchInterval = 2 * time.Millisecond

type wal struct {
	path    string
	policy  SyncPolicy
	onBytes func(int)

	// syncMu serializes fsync/rotation so a rotation never closes the
	// file a concurrent group commit is syncing. Appends never take it.
	syncMu sync.Mutex

	mu      sync.Mutex
	f       *os.File
	size    int64
	waiters []chan error
	closed  bool

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// openWAL opens (creating if needed) the log at path for appending,
// truncating any torn tail left by a crash. validLen is the scanned
// length of the good prefix.
func openWAL(path string, validLen int64, policy SyncPolicy, onBytes func(int)) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{
		path:    path,
		policy:  policy,
		onBytes: onBytes,
		f:       f,
		size:    validLen,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if policy == SyncBatch {
		go w.run()
	} else {
		close(w.done)
	}
	return w, nil
}

// append frames rec and writes it to the log, returning the ack the
// caller waits on. Callers invoke it while holding the shard locks the
// record's documents live in, which pins log order to apply order.
func (w *wal) append(rec walRecord) *walAck {
	payload, err := json.Marshal(rec)
	if err != nil {
		return ackDone(err)
	}
	frame := make([]byte, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walFrameHeader:], payload)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ackDone(errWALClosed)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.mu.Unlock()
		return ackDone(err)
	}
	w.size += int64(len(frame))
	if w.onBytes != nil {
		w.onBytes(len(frame))
	}
	switch w.policy {
	case SyncAlways:
		err := w.f.Sync()
		w.mu.Unlock()
		return ackDone(err)
	case SyncNone:
		w.mu.Unlock()
		return ackDone(nil)
	}
	ch := make(chan error, 1)
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return &walAck{ch: ch}
}

func (w *wal) sizeNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// run is the group-commit worker: woken by the first waiter, it sleeps
// one accumulation window so concurrent appends pile on, then retires
// the whole batch with a single fsync.
func (w *wal) run() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			w.flush()
			return
		case <-w.kick:
		}
		time.Sleep(batchInterval)
		w.flush()
	}
}

// flush syncs the file once and resolves every waiter enqueued before
// the sync. The fsync runs outside w.mu so appends keep flowing (and
// shard locks held across append never wait on disk).
func (w *wal) flush() {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	ws := w.waiters
	w.waiters = nil
	f := w.f
	w.mu.Unlock()
	if len(ws) == 0 {
		return
	}
	err := f.Sync()
	for _, ch := range ws {
		ch <- err
	}
}

// rotate retires the current log: outstanding appends are synced and
// acknowledged, the file is renamed to oldPath, and a fresh empty log
// opens at the same path. The caller snapshots afterwards and then
// deletes oldPath; replay handles every crash point in between because
// old-log records are always already applied when the snapshot is cut,
// and new-log records replay idempotently on top of it.
func (w *wal) rotate(oldPath string) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	err := w.f.Sync()
	for _, ch := range w.waiters {
		ch <- err
	}
	w.waiters = nil
	if err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path, oldPath); err != nil {
		// The old handle is gone; reopen so the log keeps accepting
		// appends even though rotation failed.
		f, ferr := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if ferr == nil {
			w.f = f
		}
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.size = 0
	return nil
}

// close stops the worker, syncs outstanding bytes, and closes the file.
// Appends after close fail with errWALClosed.
func (w *wal) close() error {
	if w.policy == SyncBatch {
		close(w.quit)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanWAL reads frames from path, calling apply for each decoded record,
// and returns the byte length of the valid prefix. A missing file is an
// empty log. A short, CRC-corrupt, or undecodable tail ends the scan
// without error: that is the torn tail of a crashed write, and recovery
// keeps exactly the acknowledged prefix before it.
func scanWAL(path string, apply func(walRecord)) (int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var off int64
	for {
		rest := data[off:]
		if len(rest) < walFrameHeader {
			break
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n < 0 || n > len(rest)-walFrameHeader {
			break
		}
		payload := rest[walFrameHeader : walFrameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		if apply != nil {
			apply(rec)
		}
		off += int64(walFrameHeader + n)
	}
	return off, nil
}
