// Package session implements the LLM-MS session and context layer
// (§6.5): multi-turn conversation state, hierarchical summarization that
// keeps long sessions within model input limits, and a bounded in-memory
// store mirroring the paper's privacy posture (no long-term persistence
// of user-derived data; everything lives for the session only).
//
// The summarization scheme follows §7.3: after every summarizeEvery
// messages, the turns older than the retention window are replaced by an
// extractive summary. Summaries of summaries compose hierarchically — a
// re-summarization pass condenses the previous summary together with the
// newly expired turns, so context length stays bounded no matter how long
// the conversation runs.
package session

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"llmms/internal/tokenizer"
)

// Role labels a message's author.
type Role string

// Message roles.
const (
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one conversation turn.
type Message struct {
	// Role is who produced the message.
	Role Role `json:"role"`
	// Content is the message text.
	Content string `json:"content"`
	// Model, for assistant messages, records which model answered.
	Model string `json:"model,omitempty"`
	// Time is when the message was appended.
	Time time.Time `json:"time"`
}

// Session is one conversation. All mutation goes through the Store; a
// Session value returned by the store is a snapshot safe to read freely.
type Session struct {
	// ID is the store-assigned identifier.
	ID string `json:"id"`
	// Title is the display name (defaults to the first user message).
	Title string `json:"title"`
	// Summary is the condensed representation of expired earlier turns.
	Summary string `json:"summary,omitempty"`
	// Messages are the retained (recent) turns, oldest first.
	Messages []Message `json:"messages"`
	// Created and Updated bound the session's lifetime.
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// TurnCount is the total number of messages ever appended, including
	// those folded into the summary.
	TurnCount int `json:"turn_count"`
}

// Options configures a Store. It has no fields: the store's sizes are
// the constants below.
type Options struct{}

// The store's constants. NewStore copies them into the Store, where
// in-package tests shrink them to reach a behaviour in a few turns.
const (
	// summarizeEvery folds history into the summary once the retained
	// message count exceeds it: five exchanges, matching the paper's
	// "after every five messages" per speaker.
	summarizeEvery = 10
	// retainMessages is how many recent messages stay verbatim after a
	// summarization pass.
	retainMessages = 4
	// summaryBudget caps the summary length in tokens.
	summaryBudget = 160
	// maxSessions bounds the store; the least recently updated session is
	// evicted at the cap.
	maxSessions = 256
)

// ErrNotFound is returned for unknown session ids.
var ErrNotFound = errors.New("session: not found")

// Store holds sessions in memory. It is safe for concurrent use.
type Store struct {
	tok *tokenizer.Tokenizer
	// The store's constants and clock, per store for the tests' sake.
	summarizeEvery int
	retainMessages int
	summaryBudget  int
	maxSessions    int
	clock          func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session
	byAge    []*Session // every session by (Updated, ID), oldest first
	nextID   int
}

// NewStore builds an empty store.
func NewStore(Options) *Store {
	return &Store{
		tok:            tokenizer.Default(),
		summarizeEvery: summarizeEvery,
		retainMessages: retainMessages,
		summaryBudget:  summaryBudget,
		maxSessions:    maxSessions,
		clock:          time.Now,
		sessions:       make(map[string]*Session),
	}
}

// Create opens a new session and returns its snapshot.
func (s *Store) Create(title string) Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	now := s.clock()
	sess := &Session{
		ID:      fmt.Sprintf("s%06d", s.nextID),
		Title:   strings.TrimSpace(title),
		Created: now,
		Updated: now,
	}
	if len(s.sessions) >= s.maxSessions {
		// At the cap the least recently updated session goes.
		delete(s.sessions, s.byAge[0].ID)
		s.byAge = slices.Delete(s.byAge, 0, 1)
	}
	s.sessions[sess.ID] = sess
	s.byAge = slices.Insert(s.byAge, s.ageLocked(sess), sess)
	return snapshot(sess)
}

// ageLocked returns where sess sorts in s.byAge — its index there, when
// held with its current Updated; an update sorts last. Times compare by
// wall clock: a restored session has no monotonic reading, and a mix of
// both is no total order.
func (s *Store) ageLocked(sess *Session) int {
	i, _ := slices.BinarySearchFunc(s.byAge, sess, func(a, b *Session) int {
		return cmp.Or(a.Updated.Round(0).Compare(b.Updated.Round(0)), strings.Compare(a.ID, b.ID))
	})
	return i
}

// Get returns a session snapshot.
func (s *Store) Get(id string) (Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return Session{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return snapshot(sess), nil
}

// List returns snapshots of all sessions, most recently updated first.
func (s *Store) List() []Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Session, 0, len(s.byAge))
	for i := len(s.byAge) - 1; i >= 0; i-- {
		out = append(out, snapshot(s.byAge[i]))
	}
	return out
}

// Delete removes a session.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.sessions, id)
	i := s.ageLocked(sess)
	s.byAge = slices.Delete(s.byAge, i, i+1)
	return nil
}

// Clear removes every session, mirroring the UI's "clear history".
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = make(map[string]*Session)
	s.byAge = nil
}

// Len returns the number of stored sessions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Append adds a message to a session, running a summarization pass when
// the retained history grows past the configured threshold. It returns
// the updated snapshot.
func (s *Store) Append(id string, msg Message) (Session, error) {
	if err := valid(msg); err != nil {
		return Session{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return Session{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.appendLocked(sess, msg)
	return snapshot(sess), nil
}

// AppendAll adds msgs to a session in order under one lock, as that many
// Appends would, and makes no snapshot. The first message Append would
// refuse stops it, with the ones before it appended.
func (s *Store) AppendAll(id string, msgs ...Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	for _, msg := range msgs {
		if err := valid(msg); err != nil {
			return err
		}
		s.appendLocked(sess, msg)
	}
	return nil
}

// valid refuses a message with no content or a role other than the two.
func valid(msg Message) error {
	if strings.TrimSpace(msg.Content) == "" {
		return errors.New("session: empty message content")
	}
	if msg.Role != RoleUser && msg.Role != RoleAssistant {
		return fmt.Errorf("session: invalid role %q", msg.Role)
	}
	return nil
}

// appendLocked adds msg to sess, stamped with the store's clock, and moves
// sess to the young end of byAge.
func (s *Store) appendLocked(sess *Session, msg Message) {
	now := s.clock()
	msg.Time = now
	sess.Messages = append(sess.Messages, msg)
	sess.TurnCount++
	i := s.ageLocked(sess)
	s.byAge = slices.Delete(s.byAge, i, i+1)
	sess.Updated = now
	s.byAge = slices.Insert(s.byAge, s.ageLocked(sess), sess)
	if sess.Title == "" && msg.Role == RoleUser {
		sess.Title = truncateTitle(msg.Content)
	}
	if len(sess.Messages) > s.summarizeEvery {
		s.summarizeLocked(sess)
	}
}

// summarizeLocked folds everything but the newest retainMessages turns
// into the session summary. The previous summary participates in the
// pass, which is what makes the scheme hierarchical.
func (s *Store) summarizeLocked(sess *Session) {
	cut := len(sess.Messages) - s.retainMessages
	expired := sess.Messages[:cut]
	sess.Messages = append([]Message(nil), sess.Messages[cut:]...)

	var material []string
	if sess.Summary != "" {
		material = append(material, sess.Summary)
	}
	for _, m := range expired {
		material = append(material, fmt.Sprintf("%s: %s", m.Role, m.Content))
	}
	sess.Summary = Summarize(strings.Join(material, "\n"), s.summaryBudget, s.tok)
}

// Context assembles the prompt context for the next model call: the
// summary of expired turns plus the retained messages, bounded by
// maxTokens (0 means no bound). The newest turns are kept preferentially.
func (s *Store) Context(id string, maxTokens int) (summary string, recent []Message, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	summary = sess.Summary
	recent = append([]Message(nil), sess.Messages...)
	if maxTokens <= 0 {
		return summary, recent, nil
	}
	budget := maxTokens - s.tok.Count(summary)
	// Walk backwards keeping the newest messages that fit.
	keepFrom := len(recent)
	for i := len(recent) - 1; i >= 0; i-- {
		n := s.tok.Count(recent[i].Content)
		if n > budget {
			break
		}
		budget -= n
		keepFrom = i
	}
	return summary, recent[keepFrom:], nil
}

// State is the store's persistable form: every session plus the id
// counter, so restored stores never reissue a live id.
type State struct {
	Sessions []Session `json:"sessions"`
	NextID   int       `json:"next_id"`
}

// Snapshot captures the whole store for persistence. The paper's
// privacy posture keeps sessions in memory by default; the server only
// persists them when the operator opts into a data directory.
func (s *Store) Snapshot() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{NextID: s.nextID}
	for _, sess := range s.sessions {
		st.Sessions = append(st.Sessions, snapshot(sess))
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Restore loads a snapshot into the store, replacing nothing: sessions
// already present (by id) win, and the id counter only moves forward.
func (s *Store) Restore(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.NextID > s.nextID {
		s.nextID = st.NextID
	}
	restored := 0
	for i := range st.Sessions {
		sess := st.Sessions[i]
		if sess.ID == "" {
			continue
		}
		if _, exists := s.sessions[sess.ID]; exists {
			continue
		}
		if len(s.sessions) >= s.maxSessions {
			break
		}
		cp := sess
		cp.Messages = append([]Message(nil), sess.Messages...)
		s.sessions[cp.ID] = &cp
		s.byAge = slices.Insert(s.byAge, s.ageLocked(&cp), &cp)
		restored++
	}
	return restored
}

func snapshot(sess *Session) Session {
	cp := *sess
	cp.Messages = append([]Message(nil), sess.Messages...)
	return cp
}

func truncateTitle(content string) string {
	content = strings.TrimSpace(content)
	const max = 48
	if len(content) <= max {
		return content
	}
	cut := strings.LastIndex(content[:max], " ")
	if cut < max/2 {
		cut = max
	}
	return content[:cut] + "…"
}
