package persist_test

import (
	"strings"
	"testing"

	"repro/internal/persist"
)

func TestRegistryNames(t *testing.T) {
	names := persist.Names()
	for _, want := range []string{"px86", "ptsosyn", "strict"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("backend %q not registered; have %v", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestRegistryDefault(t *testing.T) {
	m, err := persist.New(persist.Config{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if m.Name() != persist.DefaultModel {
		t.Errorf("zero config selected %q, want default %q", m.Name(), persist.DefaultModel)
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := persist.New(persist.Config{Name: "epoch-nvm"})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	// The error must name the registered backends so a CLI user can
	// correct a typo without reading source.
	for _, want := range []string{"px86", "ptsosyn", "strict"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list backend %q", err, want)
		}
	}
}

func TestRegistryIsWeak(t *testing.T) {
	cases := map[string]bool{
		"px86":    true,
		"ptsosyn": true,
		"strict":  false,
		"":        true, // default model (px86) is weak
		"bogus":   true, // unknown: assume weak, the conservative answer
	}
	for name, want := range cases {
		if got := persist.IsWeak(name); got != want {
			t.Errorf("IsWeak(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRegistryInfos(t *testing.T) {
	for _, info := range persist.Infos() {
		if info.Description == "" {
			t.Errorf("backend %q has no description", info.Name)
		}
		if _, ok := persist.Lookup(info.Name); !ok {
			t.Errorf("Infos lists %q but Lookup misses it", info.Name)
		}
	}
}
