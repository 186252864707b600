package fleet

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// This file is the pool's control plane: the periodic health prober
// that ejects and re-admits replicas out-of-band of user traffic, and
// the readiness/status views the server surfaces on /readyz and
// /api/fleet.

// Start launches the periodic prober. It is a no-op without a
// configured Probe — breaker re-admission then rides on user traffic
// alone (half-open trials). Close stops the prober.
func (p *Pool) Start() {
	if p.probe == nil {
		return
	}
	p.probeWG.Add(1)
	go func() {
		defer p.probeWG.Done()
		t := time.NewTicker(p.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-t.C:
				p.ProbeNow(context.Background())
			}
		}
	}()
}

// Close stops the prober and waits for it to exit. Safe to call
// multiple times and without Start.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.probeWG.Wait()
}

// ProbeNow probes every replica once, synchronously, in deterministic
// model order. Exported so tests and operators (via the prober loop's
// cadence being too slow for a debugging session) can force a sweep.
func (p *Pool) ProbeNow(ctx context.Context) {
	if p.probe == nil {
		return
	}
	for _, name := range p.names {
		mp := p.models[name]
		for _, r := range mp.replicas {
			p.probeReplica(ctx, mp, r)
		}
	}
}

// probeReplica runs one health check and folds the result into the
// replica's health and breaker state:
//
//   - probeFailures consecutive errors mark the replica unhealthy,
//     ejecting it from selection entirely.
//   - a success clears unhealth, and — the probe-driven re-admission
//     path — closes a cooled-down open (or idle half-open) breaker so
//     recovery does not burn a user request on the trial.
func (p *Pool) probeReplica(ctx context.Context, mp *modelPool, r *replica) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	err := p.probe(pctx, mp.model, Replica{ID: r.id, Backend: r.backend})
	cancel()

	r.mu.Lock()
	var trans string
	changed := false
	ejected := false
	if err != nil {
		r.probeFails++
		if !r.unhealthy && r.probeFails >= probeFailures {
			r.unhealthy = true
			changed = true
			ejected = true
		}
	} else {
		r.probeFails = 0
		if r.unhealthy {
			r.unhealthy = false
			changed = true
		}
		switch r.br.state {
		case breakerOpen:
			if r.br.now().Sub(r.br.openedAt) >= r.br.cooldown {
				r.br.state = breakerClosed
				r.br.consecFails = 0
				r.br.trial = false
				trans = toClosed
			}
		case breakerHalfOpen:
			if !r.br.trial {
				r.br.state = breakerClosed
				r.br.consecFails = 0
				trans = toClosed
			}
		}
	}
	r.mu.Unlock()

	if trans != "" && p.tel != nil {
		p.tel.FleetBreakerTransitions.Inc(mp.model, r.id, trans)
	}
	if changed {
		if ejected {
			p.log.Warn("replica ejected by prober",
				"model", mp.model, "replica", r.id, "err", err)
		} else {
			p.log.Info("replica re-admitted by prober",
				"model", mp.model, "replica", r.id)
		}
	}
	if trans != "" || changed {
		p.publishState(r)
	}
}

// Ready reports whether the model can serve right now: at least one
// replica that is prober-healthy with a closed breaker. The error
// enumerates per-replica states for the /readyz body.
func (p *Pool) Ready(model string) error {
	mp := p.models[model]
	if mp == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	states := make([]string, 0, len(mp.replicas))
	for _, r := range mp.replicas {
		r.mu.Lock()
		st := r.stateLocked()
		r.mu.Unlock()
		if st == "serving" {
			return nil
		}
		states = append(states, r.id+"="+st)
	}
	return fmt.Errorf("fleet: model %s has no serving replica (%s)", model, strings.Join(states, ", "))
}

// ReplicaStatus is one replica's observable state for /api/fleet.
type ReplicaStatus struct {
	ID                  string `json:"id"`
	State               string `json:"state"` // serving | open | half_open | unhealthy
	Inflight            int    `json:"inflight"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// ModelStatus is one model's replica set for /api/fleet.
type ModelStatus struct {
	Model    string          `json:"model"`
	Ready    bool            `json:"ready"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status snapshots the whole fleet in sorted model order.
func (p *Pool) Status() []ModelStatus {
	out := make([]ModelStatus, 0, len(p.names))
	for _, name := range p.names {
		mp := p.models[name]
		ms := ModelStatus{Model: name}
		for _, r := range mp.replicas {
			r.mu.Lock()
			st := ReplicaStatus{
				ID:                  r.id,
				State:               r.stateLocked(),
				Inflight:            int(r.inflight.Load()),
				ConsecutiveFailures: r.br.consecFails,
			}
			r.mu.Unlock()
			if st.State == "serving" {
				ms.Ready = true
			}
			ms.Replicas = append(ms.Replicas, st)
		}
		out = append(out, ms)
	}
	return out
}
