package telemetry

// Family is a registered metric family's identity, for the catalogue test.
type Family struct {
	Type   string
	Labels []string
}

// Families lists what r has registered.
func Families(r *Registry) map[string]Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Family, len(r.families))
	for name, f := range r.families {
		out[name] = Family{Type: f.typ, Labels: f.labels}
	}
	return out
}
