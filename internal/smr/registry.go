package smr

import "fmt"

// registry is the one table of reclaimers, in the order the paper's
// Experiment 1 legend lists them, followed by the token variants. New, Names
// and Known all derive from it; a constructor receives the name it was
// registered under and whether that name is the amortized-free form.
var registry = []struct {
	name  string
	new   func(name string, cfg Config, af bool) Reclaimer
	af    bool
	alias string // when set, name constructs the entry called alias
}{
	{name: "none", new: newNone},
	{name: "debra", new: newDEBRA}, {name: "debra_af", new: newDEBRA, af: true},
	{name: "qsbr", new: newQSBR}, {name: "qsbr_af", new: newQSBR, af: true},
	{name: "rcu", new: newRCU}, {name: "rcu_af", new: newRCU, af: true},
	{name: "hp", new: newHP}, {name: "hp_af", new: newHP, af: true},
	{name: "he", new: newHE}, {name: "he_af", new: newHE, af: true},
	{name: "ibr", new: newIBR}, {name: "ibr_af", new: newIBR, af: true},
	{name: "wfe", new: newWFE}, {name: "wfe_af", new: newWFE, af: true},
	{name: "nbr", new: newNBR(false)}, {name: "nbr_af", new: newNBR(false), af: true},
	{name: "nbrplus", new: newNBR(true)}, {name: "nbrplus_af", new: newNBR(true), af: true},
	{name: "token_naive", new: newToken(TokenNaive)},
	{name: "token_pass", new: newToken(TokenPassFirst)},
	{name: "token_periodic", new: newToken(TokenPeriodic)},
	{name: "token_af", new: newToken(TokenAF), af: true},
	// "token" (ORIG) in Experiment 2 is the periodic variant.
	{name: "token", alias: "token_periodic"},
}

// find returns name's row in the registry, or -1.
func find(name string) int {
	for i := range registry {
		if registry[i].name == name {
			return i
		}
	}
	return -1
}

// Known reports whether New accepts name: a name Names lists, or an alias.
func Known(name string) bool { return find(name) >= 0 }

// New constructs a reclaimer by registry name. Configuration problems are
// reported as errors (not panics), so harness layers — bench.RunTrial in
// particular — surface a bad smr.Config the same way they surface a bad
// workload config.
func New(name string, cfg Config) (Reclaimer, error) {
	i := find(name)
	if i < 0 {
		return nil, fmt.Errorf("smr: unknown reclaimer %q", name)
	}
	if a := registry[i].alias; a != "" {
		i = find(a)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ent := &registry[i]
	return ent.new(ent.name, cfg, ent.af), nil
}

// Names returns every registry name but the aliases, in registry order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for i := range registry {
		if registry[i].alias == "" {
			names = append(names, registry[i].name)
		}
	}
	return names
}

// Experiment2Pairs lists the (orig, af) name pairs of Figure 11b: the ten
// reclaimers the paper applies amortized freeing to.
func Experiment2Pairs() [][2]string {
	return [][2]string{
		{"debra", "debra_af"},
		{"he", "he_af"},
		{"hp", "hp_af"},
		{"ibr", "ibr_af"},
		{"nbr", "nbr_af"},
		{"nbrplus", "nbrplus_af"},
		{"qsbr", "qsbr_af"},
		{"rcu", "rcu_af"},
		{"token", "token_af"},
		{"wfe", "wfe_af"},
	}
}

// Experiment1Names lists the reclaimers of Figure 11a.
func Experiment1Names() []string {
	return []string{
		"token_af", "debra_af", "nbrplus", "nbr", "debra", "qsbr",
		"rcu", "ibr", "wfe", "he", "hp", "none",
	}
}
