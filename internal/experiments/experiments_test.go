package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// tinyCfg keeps experiment smoke tests fast.
func tinyCfg() Config {
	return Config{Scale: 0.02, Workers: 4, Samples: 100, Seed: 1, Budget: 5_000_000, Ctx: context.Background()}
}

func TestTable1(t *testing.T) {
	r, err := Table1(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	// Size ordering preserved.
	if r.Rows[0].Values["Edges"] >= r.Rows[5].Values["Edges"] {
		t.Fatal("WB should be smaller than OK")
	}
	if !strings.Contains(r.String(), "Table1") {
		t.Fatal("render broken")
	}
}

func TestFig1a(t *testing.T) {
	r, err := Fig1a(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		one := row.Values["OneRound"]
		multi := row.Values["MultiRound"]
		if one <= 0 {
			t.Fatalf("%s: no one-round tuples", row.Label)
		}
		// The paper's claim: multi-round shuffles more on cyclic queries.
		if multi > 0 && multi < one {
			t.Errorf("%s: multi-round %f < one-round %f", row.Label, multi, one)
		}
	}
}

func TestFig1b(t *testing.T) {
	r, err := Fig1b(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row.Values) == 0 {
			t.Fatalf("%s: empty row", row.Label)
		}
	}
}

func TestFig6LastNodesDominate(t *testing.T) {
	r, err := Fig6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	dominated := 0
	total := 0
	for _, row := range r.Rows {
		if row.Values == nil {
			continue
		}
		total++
		if row.Values["nth"]+row.Values["(n-1)th"] >= row.Values["rest"] {
			dominated++
		}
	}
	if total == 0 {
		t.Fatal("no rows measured")
	}
	// The paper's shape: the last two nodes dominate on most test cases.
	if dominated*2 < total {
		t.Fatalf("last-two-nodes dominated only %d/%d cases", dominated, total)
	}
}

func TestFig8PruningShape(t *testing.T) {
	cfg := tinyCfg()
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	okValid := 0
	okSel := 0
	n := 0
	for _, row := range r.Rows {
		if row.Values == nil {
			continue
		}
		n++
		if row.Values["Valid-Max"] <= row.Values["Invalid-Max"]*1.01 {
			okValid++
		}
		if row.Values["Valid-Selected"] <= row.Values["All-Selected"]*1.5+1 {
			okSel++
		}
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	if okValid*3 < n*2 {
		t.Fatalf("Valid-Max <= Invalid-Max held only %d/%d", okValid, n)
	}
	if okSel*3 < n*2 {
		t.Fatalf("Valid-Selected competitive only %d/%d", okSel, n)
	}
}

func TestFig9MergeBeatsPush(t *testing.T) {
	r, err := Fig9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Values["Pull-Comm"] > row.Values["Push-Comm"]*1.05 {
			t.Errorf("%s: pull comm %.4f should not exceed push %.4f",
				row.Label, row.Values["Pull-Comm"], row.Values["Push-Comm"])
		}
	}
}

func TestFig10Converges(t *testing.T) {
	r, err := Fig10(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Values == nil {
			continue
		}
		d := row.Values["D@10000"]
		if d > 1.5 {
			t.Errorf("%s: D@10000=%.3f should be near 1", row.Label, d)
		}
	}
}

func TestFig11SpeedupPositive(t *testing.T) {
	cfg := tinyCfg()
	r, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if v, ok := row.Values["n=1"]; ok && v != 1 {
			t.Errorf("%s: speedup at n=1 is %.3f, want 1", row.Label, v)
		}
	}
}

func TestFig12RunsAllEngines(t *testing.T) {
	cfg := tinyCfg()
	r, err := Fig12Queries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ADJ must complete every test case at this scale.
	for _, row := range r.Rows {
		if _, ok := row.Values["ADJ"]; !ok {
			t.Errorf("%s: ADJ missing (note: %s)", row.Label, row.Note)
		}
	}
}

func TestTables234(t *testing.T) {
	cfg := tinyCfg()
	for _, fn := range []func(Config) (Result, error){Table2, Table3, Table4} {
		r, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 3 {
			t.Fatalf("%s: rows=%d", r.ID, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.Values["CO-Total"] <= 0 {
				t.Errorf("%s %s: no co-opt total", r.ID, row.Label)
			}
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id should be nil")
	}
}

// cmd/experiments' root context must reach every figure that executes
// anything (Table1 only reads dataset statistics): a cancelled context
// stops each with its error, and a missing one is an error, not a default.
// Regression for engineConfig dropping Config.Ctx — Ctrl-C used to cancel
// nothing but the session experiment.
func TestEveryFigureHonorsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		if id == "table1" {
			continue
		}
		cfg := tinyCfg()
		cfg.Ctx = ctx
		if _, err := ByID(id)(cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with a cancelled ctx: err = %v, want context.Canceled in the chain", id, err)
		}
		cfg.Ctx = nil
		if _, err := ByID(id)(cfg); err == nil {
			t.Fatalf("%s without a ctx: want an error", id)
		}
	}
}
