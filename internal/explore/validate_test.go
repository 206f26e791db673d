package explore

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// TestValidateMismatches: every way a checkpoint can disagree with the
// run resuming it yields a *MismatchError naming the field and both
// sides — a wire-protocol failure mode now that dispatch workers
// Validate their unit cuts.
func TestValidateMismatches(t *testing.T) {
	base := func() *Checkpoint {
		return &Checkpoint{
			Version: checkpointVersion,
			Program: "figure2",
			Mode:    ModelCheck.String(),
			Model:   persist.DefaultModel,
			MC:      &MCCheckpoint{},
		}
	}
	mcOpts := Options{Mode: ModelCheck}
	cases := []struct {
		name  string
		ck    func() *Checkpoint
		prog  string
		opt   Options
		field string
	}{
		{"ok", base, "figure2", mcOpts, ""},
		{"version", func() *Checkpoint {
			c := base()
			c.Version = checkpointVersion - 1
			return c
		}, "figure2", mcOpts, "version"},
		{"program", base, "other", mcOpts, "program"},
		{"mode", base, "figure2", Options{Mode: Random}, "mode"},
		{"seed", func() *Checkpoint {
			c := base()
			c.Mode = Random.String()
			c.Seed = 7
			return c
		}, "figure2", Options{Mode: Random, Seed: 8}, "seed"},
		{"seed-ignored-in-mc", func() *Checkpoint {
			c := base()
			c.Seed = 7
			return c
		}, "figure2", mcOpts, ""},
		{"model", func() *Checkpoint {
			c := base()
			c.Model = "no-such-model"
			return c
		}, "figure2", mcOpts, "model"},
		{"empty-model-is-default", func() *Checkpoint {
			c := base()
			c.Model = ""
			return c
		}, "figure2", mcOpts, ""},
		{"mc-state", func() *Checkpoint {
			c := base()
			c.MC = nil
			return c
		}, "figure2", mcOpts, "mc-state"},
		{"windowed", func() *Checkpoint {
			c := base()
			c.Window = 4
			return c
		}, "figure2", Options{Mode: ModelCheck, Model: persist.Config{Window: 4}}, ""},
		{"window", func() *Checkpoint {
			c := base()
			c.Window = 4
			return c
		}, "figure2", mcOpts, "window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ck().Validate(tc.prog, tc.opt)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			var me *MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("want *MismatchError, got %T: %v", err, err)
			}
			if me.Field != tc.field {
				t.Fatalf("field %q, want %q (%v)", me.Field, tc.field, me)
			}
			if me.Have == "" || me.Want == "" || me.Have == me.Want {
				t.Fatalf("mismatch must name both sides distinctly: %+v", me)
			}
		})
	}
}

// TestLoadCheckpointVersionMismatch: a stale on-disk version loads, and
// validating it for the campaign it was cut from is the typed error.
func TestLoadCheckpointVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	c := &Checkpoint{Version: checkpointVersion - 1, Program: "p", Mode: "random"}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	err = loaded.Validate("p", Options{Mode: Random})
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %T: %v", err, err)
	}
	if me.Field != "version" {
		t.Fatalf("field %q, want version: %v", me.Field, me)
	}
}
