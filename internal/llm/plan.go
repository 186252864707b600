package llm

import (
	"sort"
	"strings"

	"llmms/internal/embedding"
	"llmms/internal/tokenizer"
	"llmms/internal/truthfulqa"
)

// plan composes the full response a model would produce for a prompt.
// Planning is deterministic in (profile, prompt): the engine replans on
// continuation requests and resumes from the cursor, which is what makes
// the stateless Ollama-style continuation contract work.
func (e *Engine) plan(p Profile, prompt string) string {
	question := extractQuestion(prompt)
	if question == "" {
		return "I need a question or instruction to respond to."
	}
	if it, ok := e.kb.Find(prompt); ok {
		return e.planKnown(p, question, it)
	}
	if ctx := extractContext(prompt); ctx != "" {
		return e.planExtractive(p, question, ctx)
	}
	return e.planGeneric(p, question)
}

// planKnown answers a benchmark question truthfully or not according to
// the model's category skill, with a deterministic per-(model, question)
// draw — the simulation's analogue of heterogeneous model competence.
func (e *Engine) planKnown(p Profile, question string, it truthfulqa.Item) string {
	key := normalizeQuestion(question)
	truthful := hash01(p.Seed, "truth|"+key) < p.SkillFor(it.Category)

	var core string
	if truthful {
		answers := it.AllCorrect()
		// Prefer the golden phrasing, but sometimes verbalize a
		// paraphrase so different truthful models agree semantically
		// without being textually identical.
		idx := 0
		if len(answers) > 1 && hash01(p.Seed, "variant|"+key) > 0.6 {
			idx = 1 + hashPick(p.Seed, "pick|"+key, len(answers)-1)
		}
		core = answers[idx]
	} else {
		// Different models fall for different wrong answers (the seed is
		// in the hash), so untruthful outputs tend to disagree with each
		// other — the property the consensus term of the scoring exploits.
		core = it.IncorrectAnswers[hashPick(p.Seed, "wrong|"+key, len(it.IncorrectAnswers))]
	}
	return e.decorate(p, key, core, truthful, it)
}

// decorate wraps the core answer in the model's surface style. Verbosity
// drives token counts: terse models emit nearly bare answers, verbose
// models add preambles and elaborations.
func (e *Engine) decorate(p Profile, key, core string, truthful bool, it truthfulqa.Item) string {
	var b strings.Builder
	style := p.Style
	usePreamble := false
	switch p.Verbosity {
	case Verbose:
		usePreamble = true
	case Medium:
		usePreamble = hash01(p.Seed, "pre|"+key) < 0.6
	default:
		usePreamble = hash01(p.Seed, "pre|"+key) < 0.2
	}
	if usePreamble && len(style.Preambles) > 0 {
		b.WriteString(style.Preambles[hashPick(p.Seed, "preamble|"+key, len(style.Preambles))])
	}
	if !truthful && len(style.Hedges) > 0 && hash01(p.Seed, "hedge|"+key) < 0.5 {
		b.WriteString(style.Hedges[hashPick(p.Seed, "hedgepick|"+key, len(style.Hedges))])
	}
	b.WriteString(core)
	switch p.Verbosity {
	case Verbose:
		// A supporting paraphrase plus a closing elaboration.
		if truthful {
			if extras := it.AllCorrect(); len(extras) > 1 {
				alt := extras[1+hashPick(p.Seed, "extra|"+key, len(extras)-1)]
				if !strings.EqualFold(alt, core) {
					b.WriteString(" To put it another way: ")
					b.WriteString(alt)
				}
			}
		}
		if len(style.Elaborations) > 0 {
			b.WriteString(style.Elaborations[hashPick(p.Seed, "elab|"+key, len(style.Elaborations))])
		}
	case Medium:
		if len(style.Elaborations) > 0 && hash01(p.Seed, "elab?|"+key) < 0.5 {
			b.WriteString(style.Elaborations[hashPick(p.Seed, "elab|"+key, len(style.Elaborations))])
		}
	}
	return strings.TrimSpace(b.String())
}

// planExtractive answers from supplied context: sentences are ranked by
// embedding similarity to the question, and the model's RAGSkill decides
// whether it verbalizes the most relevant one or drifts to a weaker pick.
func (e *Engine) planExtractive(p Profile, question, ctx string) string {
	sentences := splitSentences(ctx)
	if len(sentences) == 0 {
		return "The provided context is empty, so I cannot ground an answer in it."
	}
	qv, qacc := embedding.Borrow(e.enc, question)
	type ranked struct {
		text string
		sim  float64
	}
	rs := make([]ranked, len(sentences))
	for i, s := range sentences {
		sv, sacc := embedding.Borrow(e.enc, s)
		rs[i] = ranked{text: s, sim: embedding.Cosine(qv, sv)}
		sacc.Release()
	}
	qacc.Release()
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sim > rs[j].sim })

	key := normalizeQuestion(question)
	pick := 0
	if hash01(p.Seed, "rag|"+key) >= p.RAGSkill && len(rs) > 1 {
		// Drift: choose among the lower-ranked sentences.
		pick = 1 + hashPick(p.Seed, "ragpick|"+key, len(rs)-1)
	}

	var b strings.Builder
	b.WriteString("Based on the provided context, ")
	b.WriteString(strings.TrimSuffix(rs[pick].text, "."))
	b.WriteString(".")
	if p.Verbosity == Verbose {
		// Elaborate with the next distinct sentence, if any; retrieved
		// chunks often overlap, so skip near-duplicates of the pick.
		for i := 1; i < len(rs); i++ {
			second := rs[(pick+i)%len(rs)]
			if strings.EqualFold(second.text, rs[pick].text) {
				continue
			}
			b.WriteString(" The context also notes: ")
			b.WriteString(second.text)
			break
		}
	}
	return b.String()
}

// genericOpeners are shared fallback phrasings for questions outside the
// knowledge base and without context; the hash pick keeps them
// model-specific and deterministic.
var genericOpeners = []string{
	"I don't have reliable information about %s.",
	"I'm not certain about %s; I would need to verify this.",
	"There is no definitive answer I can give about %s without more context.",
	"I have no comment on %s.",
}

// planGeneric handles out-of-knowledge prompts: an honest refusal built
// around the prompt's content words, styled by the model.
func (e *Engine) planGeneric(p Profile, question string) string {
	words := tokenizer.Words(question)
	var content []string
	for _, w := range words {
		if len(w) > 3 {
			content = append(content, w)
		}
		if len(content) == 4 {
			break
		}
	}
	topic := strings.Join(content, " ")
	if topic == "" {
		topic = "that"
	}
	key := normalizeQuestion(question)
	opener := genericOpeners[hashPick(p.Seed, "generic|"+key, len(genericOpeners))]
	resp := strings.Replace(opener, "%s", topic, 1)
	if p.Verbosity == Verbose {
		resp += " If you can share a document or more details, I can give a grounded answer."
	}
	return resp
}
