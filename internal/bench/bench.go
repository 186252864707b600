// Package bench is the LLM-MS experiment harness. It reruns the paper's
// evaluation (Chapter 8): every TruthfulQA question is answered by each
// of the five systems — the three single-model baselines (LLaMA-3-8B,
// Mistral-7B, Qwen-2-7B) and the two orchestration strategies (LLM-MS
// OUA, LLM-MS MAB) — and the reward (Eq. 8.1), token-overlap F1,
// truthfulness accuracy, and token usage are aggregated per system.
//
// The three reported figures map onto the aggregates as:
//
//	Figure 8.1  average reward per model            → SystemResult.AvgReward
//	Figure 8.2  average F1 score per model          → SystemResult.AvgF1
//	Figure 8.3  average reward-to-tokens ratio      → SystemResult.RewardPerToken
//
// Render emits the figures as aligned text tables; CSV emits
// machine-readable rows for plotting.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/metrics"
	"llmms/internal/truthfulqa"
)

// System is one evaluated configuration.
type System struct {
	// Name is the display label used in figures.
	Name string
	// Strategy selects the orchestration policy.
	Strategy core.Strategy
	// Model is the serving model for StrategySingle (ignored otherwise).
	Model string
}

// Systems returns the paper's five evaluated systems (§8.1 "Execution
// Modes Compared"), single-model baselines first.
func Systems() []System {
	return []System{
		{Name: "LLaMA-3-8B", Strategy: core.StrategySingle, Model: llm.ModelLlama3},
		{Name: "Mistral-7B", Strategy: core.StrategySingle, Model: llm.ModelMistral},
		{Name: "Qwen-2-7B", Strategy: core.StrategySingle, Model: llm.ModelQwen2},
		{Name: "LLM-MS OUA", Strategy: core.StrategyOUA},
		{Name: "LLM-MS MAB", Strategy: core.StrategyMAB},
	}
}

// Config parameterizes a harness run. The orchestrated systems run over
// the paper's three models, with core.DefaultConfig's settings, and
// answers are scored with the paper's reward weights.
type Config struct {
	// Dataset is the question set. Required.
	Dataset truthfulqa.Dataset
	// Systems defaults to Systems().
	Systems []System
	// MaxTokens is λ_max per query. Default 2048 (§6.3).
	MaxTokens int
	// Progress, when non-nil, receives (completed, total) after each
	// query so CLIs can show progress.
	Progress func(done, total int)

	// param and value are the one orchestrator setting a RunAblation
	// point overrides; param is empty outside a sweep.
	param AblationParam
	value float64
}

// models are the orchestrated systems' candidates: the paper's three.
var models = []string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2}

func (c Config) withDefaults() Config {
	if len(c.Systems) == 0 {
		c.Systems = Systems()
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = 2048
	}
	return c
}

// QueryRecord is the raw measurement of one (system, question) cell.
type QueryRecord struct {
	// System is the display label.
	System string `json:"system"`
	// Question indexes into the dataset.
	Question int `json:"question"`
	// Category is the question's TruthfulQA category.
	Category string `json:"category"`
	// Answer is the selected response.
	Answer string `json:"answer"`
	// WinnerModel is which model produced the selected answer.
	WinnerModel string `json:"winner_model"`
	// Reward is Eq. 8.1 of the selected answer.
	Reward float64 `json:"reward"`
	// F1 is the token-overlap F1 against the correct references.
	F1 float64 `json:"f1"`
	// Truthful is the automatic accuracy judgment.
	Truthful bool `json:"truthful"`
	// AnswerTokens is the paper's token-usage metric (§8.2): the number
	// of tokens in the final selected answer.
	AnswerTokens int `json:"answer_tokens"`
	// TotalTokens is the full generation cost across all models
	// consulted, including pruned partial outputs.
	TotalTokens int `json:"total_tokens"`
	// RewardPerToken is Reward/AnswerTokens (0 when AnswerTokens is 0),
	// the per-query quantity behind Figure 8.3.
	RewardPerToken float64 `json:"reward_per_token"`
}

// SystemResult aggregates one system over the whole dataset.
type SystemResult struct {
	System string `json:"system"`
	// Queries is how many questions the aggregate covers.
	Queries int `json:"queries"`
	// AvgReward is Figure 8.1's bar for this system.
	AvgReward float64 `json:"avg_reward"`
	// AvgF1 is Figure 8.2's bar.
	AvgF1 float64 `json:"avg_f1"`
	// RewardPerToken is Figure 8.3's bar: mean of per-query ratios.
	RewardPerToken float64 `json:"reward_per_token"`
	// Accuracy is the fraction of truthful answers.
	Accuracy float64 `json:"accuracy"`
	// AvgAnswerTokens is the mean final-answer length (the paper's token
	// usage metric).
	AvgAnswerTokens float64 `json:"avg_answer_tokens"`
	// AvgTotalTokens is the mean generation cost across all models.
	AvgTotalTokens float64 `json:"avg_total_tokens"`
	// RewardStdDev is the standard deviation of per-query rewards.
	RewardStdDev float64 `json:"reward_stddev"`
}

// Report is the complete harness output.
type Report struct {
	// Results holds one aggregate per system, in Config.Systems order.
	Results []SystemResult `json:"results"`
	// Records are the raw per-query measurements.
	Records []QueryRecord `json:"records"`
	// Questions is the dataset size.
	Questions int `json:"questions"`
	// MaxTokens echoes λ_max.
	MaxTokens int `json:"max_tokens"`
	// Elapsed is the wall-clock harness duration.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Result returns one system's aggregate by display name.
func (r Report) Result(system string) (SystemResult, bool) {
	for _, res := range r.Results {
		if res.System == system {
			return res, true
		}
	}
	return SystemResult{}, false
}

// concurrency is how many queries Run evaluates in parallel.
const concurrency = 8

// Run executes the full evaluation against a backend. The backend is
// typically the in-process llm.Engine; any core.Backend works, so the
// harness can also drive a remote modeld daemon.
func Run(ctx context.Context, backend core.Backend, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Dataset) == 0 {
		return Report{}, errors.New("bench: empty dataset")
	}
	if err := cfg.Dataset.Validate(); err != nil {
		return Report{}, fmt.Errorf("bench: %w", err)
	}
	start := time.Now()
	scorer := metrics.NewScorer(embedding.Default(), metrics.PaperWeights)

	orchestrators := make(map[string]*core.Orchestrator, len(cfg.Systems))
	for _, sys := range cfg.Systems {
		oc, err := orchestratorFor(backend, cfg, sys)
		if err != nil {
			return Report{}, err
		}
		orchestrators[sys.Name] = oc
	}

	type cell struct {
		sys int
		q   int
	}
	cells := make([]cell, 0, len(cfg.Systems)*len(cfg.Dataset))
	for si := range cfg.Systems {
		for qi := range cfg.Dataset {
			cells = append(cells, cell{sys: si, q: qi})
		}
	}
	records := make([]QueryRecord, len(cells))

	var (
		wg   sync.WaitGroup
		sem  = make(chan struct{}, concurrency)
		mu   sync.Mutex
		done int
		errs []error
	)
	for i, c := range cells {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c cell) {
			defer wg.Done()
			defer func() { <-sem }()
			sys := cfg.Systems[c.sys]
			item := cfg.Dataset[c.q]
			rec, err := runQuery(ctx, orchestrators[sys.Name], scorer, sys, item, c.q)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			records[i] = rec
			done++
			if cfg.Progress != nil {
				cfg.Progress(done, len(cells))
			}
		}(i, c)
	}
	wg.Wait()
	if len(errs) > 0 {
		return Report{}, fmt.Errorf("bench: %d queries failed, first: %w", len(errs), errs[0])
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	report := Report{
		Records:   records,
		Questions: len(cfg.Dataset),
		MaxTokens: cfg.MaxTokens,
		Elapsed:   time.Since(start),
	}
	for _, sys := range cfg.Systems {
		report.Results = append(report.Results, aggregate(sys.Name, records))
	}
	return report, nil
}

// orchestratorFor builds the per-system orchestrator. Single-model
// systems get a one-model configuration so the baseline never consults
// other models.
func orchestratorFor(backend core.Backend, cfg Config, sys System) (*core.Orchestrator, error) {
	var oc core.Config
	if sys.Strategy == core.StrategySingle {
		if sys.Model == "" {
			return nil, fmt.Errorf("bench: system %q needs a model", sys.Name)
		}
		oc = core.DefaultConfig(sys.Model)
	} else {
		oc = core.DefaultConfig(models...)
	}
	oc.MaxTokens = cfg.MaxTokens
	switch v := cfg.value; cfg.param {
	case AblatePruneMargin:
		oc.PruneMargin = v
	case AblateLeadMargin:
		oc.LeadMargin = v
	case AblateRounds:
		oc.Rounds = int(v)
	case AblateMABChunk:
		oc.MABChunk = int(v)
	case AblateAlpha:
		oc.Alpha, oc.Beta = v, 1-v
	case AblateGamma:
		oc.Gamma0 = v
	}
	return core.New(backend, oc)
}

func runQuery(ctx context.Context, oc *core.Orchestrator, scorer *metrics.Scorer, sys System, item truthfulqa.Item, qi int) (QueryRecord, error) {
	res, err := oc.Run(ctx, sys.Strategy, item.Question)
	if err != nil {
		return QueryRecord{}, fmt.Errorf("%s q%d: %w", sys.Name, qi, err)
	}
	reward := scorer.Reward(res.Answer, item)
	answerTokens := 0
	if out, ok := res.Outcome(res.Model); ok {
		answerTokens = out.Tokens
	}
	rec := QueryRecord{
		System:       sys.Name,
		Question:     qi,
		Category:     item.Category,
		Answer:       res.Answer,
		WinnerModel:  res.Model,
		Reward:       reward,
		F1:           metrics.F1(res.Answer, item),
		Truthful:     scorer.Truthful(res.Answer, item),
		AnswerTokens: answerTokens,
		TotalTokens:  res.TokensUsed,
	}
	if answerTokens > 0 {
		rec.RewardPerToken = reward / float64(answerTokens)
	}
	return rec, nil
}

// aggregate folds one system's records into its SystemResult.
func aggregate(system string, records []QueryRecord) SystemResult {
	var rewards, f1s, ratios, answerTokens, totalTokens []float64
	truthful := 0
	n := 0
	for _, r := range records {
		if r.System != system {
			continue
		}
		n++
		rewards = append(rewards, r.Reward)
		f1s = append(f1s, r.F1)
		ratios = append(ratios, r.RewardPerToken)
		answerTokens = append(answerTokens, float64(r.AnswerTokens))
		totalTokens = append(totalTokens, float64(r.TotalTokens))
		if r.Truthful {
			truthful++
		}
	}
	if n == 0 {
		return SystemResult{System: system}
	}
	rs := metrics.Summarize(rewards)
	return SystemResult{
		System:          system,
		Queries:         n,
		AvgReward:       rs.Mean,
		AvgF1:           metrics.Summarize(f1s).Mean,
		RewardPerToken:  metrics.Summarize(ratios).Mean,
		Accuracy:        float64(truthful) / float64(n),
		AvgAnswerTokens: metrics.Summarize(answerTokens).Mean,
		AvgTotalTokens:  metrics.Summarize(totalTokens).Mean,
		RewardStdDev:    rs.StdDev,
	}
}

// CategoryBreakdown aggregates one system per question category — the
// per-domain view the paper's analysis (§8.4) discusses qualitatively.
func (r Report) CategoryBreakdown(system string) []SystemResult {
	byCat := make(map[string][]QueryRecord)
	for _, rec := range r.Records {
		if rec.System == system {
			byCat[rec.Category] = append(byCat[rec.Category], rec)
		}
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	out := make([]SystemResult, 0, len(cats))
	for _, c := range cats {
		agg := aggregate(system, byCat[c])
		agg.System = c // reuse the struct; System carries the category
		out = append(out, agg)
	}
	return out
}

// WinnerShare returns, for an orchestrated system, the fraction of
// queries each underlying model won — the allocation transparency the
// paper's UI overlay exposes.
func (r Report) WinnerShare(system string) map[string]float64 {
	counts := make(map[string]int)
	total := 0
	for _, rec := range r.Records {
		if rec.System != system {
			continue
		}
		counts[rec.WinnerModel]++
		total++
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for m, c := range counts {
		out[m] = float64(c) / float64(total)
	}
	return out
}

// Figure identifies one of the paper's evaluation figures.
type Figure string

// The paper's three evaluation figures.
const (
	Figure81Reward Figure = "8.1"
	Figure82F1     Figure = "8.2"
	Figure83Ratio  Figure = "8.3"
)

// FigureTitle returns the paper's caption for a figure.
func FigureTitle(f Figure) string {
	switch f {
	case Figure81Reward:
		return "Figure 8.1: Average reward per model over the TruthfulQA dataset"
	case Figure82F1:
		return "Figure 8.2: Average F1 score per model"
	case Figure83Ratio:
		return "Figure 8.3: Average reward-to-tokens ratio per model"
	}
	return string(f)
}

// FigureValue extracts the figure's metric from a system aggregate.
func FigureValue(f Figure, res SystemResult) float64 {
	switch f {
	case Figure81Reward:
		return res.AvgReward
	case Figure82F1:
		return res.AvgF1
	case Figure83Ratio:
		return res.RewardPerToken
	}
	return 0
}

// Render formats one figure as an aligned text table with a bar chart
// column, ready to print.
func (r Report) Render(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", FigureTitle(f))
	fmt.Fprintf(&b, "(%d questions, λ_max = %d tokens)\n\n", r.Questions, r.MaxTokens)

	maxVal := 0.0
	for _, res := range r.Results {
		if v := FigureValue(f, res); v > maxVal {
			maxVal = v
		}
	}
	const barWidth = 36
	fmt.Fprintf(&b, "%-14s %10s  %s\n", "System", "Value", "")
	for _, res := range r.Results {
		v := FigureValue(f, res)
		bar := 0
		if maxVal > 0 {
			bar = int(v / maxVal * barWidth)
		}
		if bar < 0 {
			bar = 0
		}
		fmt.Fprintf(&b, "%-14s %10.4f  %s\n", res.System, v, strings.Repeat("█", bar))
	}
	return b.String()
}

// RenderAll renders the three figures plus the summary table.
func (r Report) RenderAll() string {
	var b strings.Builder
	for _, f := range []Figure{Figure81Reward, Figure82F1, Figure83Ratio} {
		b.WriteString(r.Render(f))
		b.WriteString("\n")
	}
	b.WriteString(r.RenderSummary())
	return b.String()
}

// RenderSummary prints every aggregate column for every system.
func (r Report) RenderSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Summary (%d questions, λ_max = %d, wall clock %s)\n\n",
		r.Questions, r.MaxTokens, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-14s %8s %8s %10s %9s %8s %8s\n",
		"System", "Reward", "F1", "Rwd/Tok", "Accuracy", "AnsTok", "CostTok")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-14s %8.4f %8.4f %10.6f %8.1f%% %8.1f %8.1f\n",
			res.System, res.AvgReward, res.AvgF1, res.RewardPerToken,
			res.Accuracy*100, res.AvgAnswerTokens, res.AvgTotalTokens)
	}
	return b.String()
}

// CSV emits one row per system with the three figure metrics plus
// accuracy and token columns; the header names match the JSON fields.
func (r Report) CSV() string {
	var b strings.Builder
	b.WriteString("system,queries,avg_reward,avg_f1,reward_per_token,accuracy,avg_answer_tokens,avg_total_tokens\n")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%s,%d,%.6f,%.6f,%.8f,%.4f,%.2f,%.2f\n",
			res.System, res.Queries, res.AvgReward, res.AvgF1,
			res.RewardPerToken, res.Accuracy, res.AvgAnswerTokens, res.AvgTotalTokens)
	}
	return b.String()
}
