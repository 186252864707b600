package telemetry_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/server"
	"llmms/internal/telemetry"
	"llmms/internal/truthfulqa"
)

// TestMetricCatalogue holds DESIGN.md's metric catalogue ("Observability")
// and the code to each other: it registers the server's instrument set the
// way cmd/llmms composes it and the daemon's the way cmd/modeld does, reads
// the table, and fails on a family, a type, a label set or a registry that
// is on one side only. Every metric the code registers is documented and
// every documented metric exists.
func TestMetricCatalogue(t *testing.T) {
	engine := llm.NewEngine(llm.Options{Knowledge: llm.NewKnowledge(truthfulqa.Seed())})
	defer engine.Close()
	tel := telemetry.New(telemetry.Options{})
	if _, err := server.NewServer(server.Options{Engine: engine, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	telemetry.RegisterBuildInfo(tel.Registry, "test")
	registries := map[string]map[string]telemetry.Family{
		"server": telemetry.Families(tel.Registry),
		"daemon": telemetry.Families(modeld.NewServer(engine).Registry()),
	}
	// name → "type {labels} registries", the form both sides are compared in.
	code := map[string]string{}
	for _, where := range []string{"server", "daemon"} {
		for name, f := range registries[where] {
			shape := fmt.Sprintf("%s {%s}", f.Type, strings.Join(f.Labels, ","))
			switch prev, both := code[name]; {
			case !both:
				code[name] = shape + " " + where
			case prev == shape+" server":
				code[name] = prev + " " + where
			default:
				t.Errorf("%s is %s on the daemon and %s", name, shape, prev)
			}
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| family | type | labels | registry | meaning |")
	if !ok {
		t.Fatal(`DESIGN.md has no metric catalogue table ("| family | type | labels | registry | meaning |")`)
	}
	documented := map[string]string{}
	for _, line := range strings.Split(table, "\n")[2:] { // past the header's own end and the |---| row
		cells := strings.Split(line, "|")
		if len(cells) < 7 {
			break // the table is over
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		labels := strings.ReplaceAll(strings.ReplaceAll(strings.TrimSpace(cells[3]), "`", ""), " ", "")
		if labels == "—" {
			labels = ""
		}
		if _, dup := documented[name]; dup {
			t.Errorf("DESIGN.md lists %s twice", name)
		}
		documented[name] = fmt.Sprintf("%s {%s} %s", strings.TrimSpace(cells[2]), labels,
			strings.ReplaceAll(strings.TrimSpace(cells[4]), ",", ""))
		if strings.TrimSpace(cells[5]) == "" {
			t.Errorf("DESIGN.md says nothing about what %s means", name)
		}
	}

	var names []string
	for name := range code {
		names = append(names, name)
	}
	for name := range documented {
		if _, ok := code[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		switch c, d := code[name], documented[name]; {
		case d == "":
			t.Errorf("%s is registered (%s) and not in DESIGN.md's catalogue", name, c)
		case c == "":
			t.Errorf("%s is in DESIGN.md's catalogue (%s) and nothing registers it", name, d)
		case c != d:
			t.Errorf("%s: the code registers %s, DESIGN.md documents %s", name, c, d)
		}
	}
	if len(documented) < 50 {
		t.Errorf("only %d families read from the table: the parse is off", len(documented))
	}
}
