package smr

import (
	"slices"
	"testing"
)

// TestNamesMatchFactories checks the one registry table: no name appears
// twice, exactly one row is an alias ("token", for the periodic variant), the
// alias resolves to a constructible row, and Names() lists every row but it.
func TestNamesMatchFactories(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	var aliases []string
	for _, ent := range registry {
		if seen[ent.name] {
			t.Errorf("registry lists %q twice", ent.name)
		}
		seen[ent.name] = true
		switch {
		case ent.alias != "":
			aliases = append(aliases, ent.name)
			if i := find(ent.alias); i < 0 || registry[i].new == nil {
				t.Errorf("alias %q names %q, which does not construct", ent.name, ent.alias)
			}
			if slices.Contains(names, ent.name) {
				t.Errorf("Names() lists the alias %q", ent.name)
			}
		case ent.new == nil:
			t.Errorf("registry row %q has no constructor", ent.name)
		case !slices.Contains(names, ent.name):
			t.Errorf("Names() omits %q", ent.name)
		}
		if !Known(ent.name) {
			t.Errorf("Known(%q) = false", ent.name)
		}
	}
	if len(aliases) != 1 || aliases[0] != "token" {
		t.Errorf("aliases = %v, want exactly [token]", aliases)
	}
	if len(names) != len(registry)-1 {
		t.Errorf("Names() has %d entries for %d non-alias rows", len(names), len(registry)-1)
	}
	if r, err := New("token", testConfig(1)); err != nil || r.Name() != "token_periodic" {
		t.Errorf(`New("token") = %v, %v; want the token_periodic reclaimer`, r, err)
	}
	if Known("bogus") {
		t.Error(`Known("bogus") = true`)
	}
}

// TestExperimentNamesRegistered keeps the curated experiment lists inside
// the registry too.
func TestExperimentNamesRegistered(t *testing.T) {
	for _, name := range Experiment1Names() {
		if !Known(name) {
			t.Errorf("Experiment1Names lists unknown reclaimer %q", name)
		}
	}
	for _, pair := range Experiment2Pairs() {
		for _, name := range pair {
			if !Known(name) {
				t.Errorf("Experiment2Pairs lists unknown reclaimer %q", name)
			}
		}
	}
}
