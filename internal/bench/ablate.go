package bench

import (
	"context"
	"fmt"
	"strings"

	"llmms/internal/core"
)

// AblationParam names a tunable the ablation harness sweeps.
type AblationParam string

// The ablatable parameters — the design choices DESIGN.md's calibration
// notes call out.
const (
	// AblatePruneMargin sweeps OUA's pruning threshold (paper pseudocode
	// uses 0.5; the repository default is 0.08).
	AblatePruneMargin AblationParam = "prune_margin"
	// AblateLeadMargin sweeps OUA's early-exit threshold.
	AblateLeadMargin AblationParam = "lead_margin"
	// AblateRounds sweeps how many chunks OUA splits each allowance into.
	AblateRounds AblationParam = "rounds"
	// AblateMABChunk sweeps the tokens granted per bandit pull.
	AblateMABChunk AblationParam = "mab_chunk"
	// AblateAlpha sweeps the query-similarity weight with β = 1 − α,
	// trading relevance against consensus in the score.
	AblateAlpha AblationParam = "alpha"
	// AblateGamma sweeps MAB's initial exploration coefficient γ₀
	// (Algorithm 2 decays it as γ = γ₀·(1 − used/λ_max); the paper fixes
	// γ₀ = 0.3).
	AblateGamma AblationParam = "gamma"
	// AblateBudget sweeps λ_max.
	AblateBudget AblationParam = "max_tokens"
)

// AblationParams lists every supported parameter.
func AblationParams() []AblationParam {
	return []AblationParam{
		AblatePruneMargin, AblateLeadMargin, AblateRounds,
		AblateMABChunk, AblateAlpha, AblateGamma, AblateBudget,
	}
}

// ParseAblationParam resolves a user-supplied parameter name.
func ParseAblationParam(s string) (AblationParam, error) {
	for _, p := range AblationParams() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("bench: unknown ablation parameter %q", s)
}

// DefaultAblationValues returns a sensible sweep for each parameter.
func DefaultAblationValues(p AblationParam) []float64 {
	switch p {
	case AblatePruneMargin, AblateLeadMargin:
		return []float64{0.02, 0.05, 0.08, 0.15, 0.30, 0.50}
	case AblateRounds:
		return []float64{1, 2, 4, 8}
	case AblateMABChunk:
		return []float64{4, 8, 16, 32, 64}
	case AblateAlpha:
		return []float64{0.3, 0.5, 0.7, 0.9, 1.0}
	case AblateGamma:
		// The lower bound is near-zero rather than zero: core's config
		// defaulting treats γ₀ ≤ 0 as "use the paper's 0.3".
		return []float64{0.01, 0.1, 0.3, 0.6, 1.0}
	case AblateBudget:
		return []float64{64, 96, 128, 192, 256, 512}
	}
	return nil
}

// AblationPoint is the evaluation at one parameter value.
type AblationPoint struct {
	// Value is the swept parameter's setting.
	Value float64 `json:"value"`
	// Results are the per-system aggregates at this setting.
	Results []SystemResult `json:"results"`
}

// Ablation is a full parameter sweep.
type Ablation struct {
	// Param is the swept parameter.
	Param AblationParam `json:"param"`
	// Points are the evaluations, in the order the values were given.
	Points []AblationPoint `json:"points"`
}

// RunAblation evaluates the systems across a parameter sweep. The base
// config supplies everything that is not swept. For parameters that only
// affect orchestration (margins, rounds, chunk, α) the single-model
// baselines are evaluated once and reused across points; the budget sweep
// re-evaluates everything.
func RunAblation(ctx context.Context, backend core.Backend, base Config, param AblationParam, values []float64) (Ablation, error) {
	if len(values) == 0 {
		values = DefaultAblationValues(param)
	}
	if len(values) == 0 {
		return Ablation{}, fmt.Errorf("bench: no values for parameter %q", param)
	}
	orchestrationOnly := param != AblateBudget

	var singles []SystemResult
	if orchestrationOnly {
		cfg := base
		cfg.Systems = singleSystems(base)
		rep, err := Run(ctx, backend, cfg)
		if err != nil {
			return Ablation{}, err
		}
		singles = rep.Results
	}

	ab := Ablation{Param: param}
	for _, v := range values {
		cfg, err := applyAblation(base, param, v)
		if err != nil {
			return Ablation{}, err
		}
		if orchestrationOnly {
			cfg.Systems = orchestratedSystems(base)
		}
		rep, err := Run(ctx, backend, cfg)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: %s=%v: %w", param, v, err)
		}
		results := rep.Results
		if orchestrationOnly {
			results = append(append([]SystemResult(nil), singles...), results...)
		}
		ab.Points = append(ab.Points, AblationPoint{Value: v, Results: results})
	}
	return ab, nil
}

func singleSystems(base Config) []System {
	all := base.Systems
	if len(all) == 0 {
		all = Systems()
	}
	var out []System
	for _, s := range all {
		if s.Strategy == core.StrategySingle {
			out = append(out, s)
		}
	}
	return out
}

func orchestratedSystems(base Config) []System {
	all := base.Systems
	if len(all) == 0 {
		all = Systems()
	}
	var out []System
	for _, s := range all {
		if s.Strategy != core.StrategySingle {
			out = append(out, s)
		}
	}
	return out
}

// applyAblation sets one swept parameter on a copy of the base config:
// λ_max is the config's own, the rest reach orchestratorFor through
// param and value.
func applyAblation(base Config, param AblationParam, v float64) (Config, error) {
	cfg := base
	switch param {
	case AblatePruneMargin, AblateLeadMargin, AblateRounds, AblateMABChunk:
	case AblateAlpha:
		if v < 0 || v > 1 {
			return Config{}, fmt.Errorf("bench: alpha %v outside [0,1]", v)
		}
	case AblateGamma:
		if v <= 0 {
			return Config{}, fmt.Errorf("bench: gamma %v must be positive", v)
		}
	case AblateBudget:
		cfg.MaxTokens = int(v)
		return cfg, nil
	default:
		return Config{}, fmt.Errorf("bench: unknown ablation parameter %q", param)
	}
	cfg.param, cfg.value = param, v
	return cfg, nil
}

// Render formats the sweep as one table per metric (reward, F1,
// reward-per-token), systems as columns and swept values as rows.
func (a Ablation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation of %s\n", a.Param)
	if len(a.Points) == 0 {
		return b.String()
	}
	metrics := []struct {
		name string
		get  func(SystemResult) float64
	}{
		{"avg reward", func(r SystemResult) float64 { return r.AvgReward }},
		{"avg F1", func(r SystemResult) float64 { return r.AvgF1 }},
		{"reward/token", func(r SystemResult) float64 { return r.RewardPerToken }},
		{"total cost (tokens)", func(r SystemResult) float64 { return r.AvgTotalTokens }},
	}
	systems := a.Points[0].Results
	for _, m := range metrics {
		fmt.Fprintf(&b, "\n%s:\n%-10s", m.name, string(a.Param))
		for _, s := range systems {
			fmt.Fprintf(&b, " %12s", s.System)
		}
		b.WriteString("\n")
		for _, pt := range a.Points {
			fmt.Fprintf(&b, "%-10.3g", pt.Value)
			for _, s := range pt.Results {
				fmt.Fprintf(&b, " %12.4f", m.get(s))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Result returns the aggregate for one system at one point index.
func (a Ablation) Result(point int, system string) (SystemResult, bool) {
	if point < 0 || point >= len(a.Points) {
		return SystemResult{}, false
	}
	for _, r := range a.Points[point].Results {
		if r.System == system {
			return r, true
		}
	}
	return SystemResult{}, false
}
