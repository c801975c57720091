package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"rckalign/internal/server"
	"rckalign/internal/tmalign"
)

// goldenScores maps a CK34 pair (i, j) to its line in
// testdata/golden_scores_ck34.txt, the byte-exact output of the
// default-kernel batch run.
type goldenScores map[[2]int]string

func loadGolden(root string) (goldenScores, error) {
	path := filepath.Join(root, "testdata", "golden_scores_ck34.txt")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := goldenScores{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var i, j int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &i, &j); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		g[[2]int{i, j}] = sc.Text() + "\n"
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(g) != 561 {
		return nil, fmt.Errorf("%s: %d pairs, want 561", path, len(g))
	}
	return g, nil
}

// check compares one pair's score line with the golden.
func (g goldenScores) check(i, j int, r *tmalign.Result) error {
	want, ok := g[[2]int{i, j}]
	if !ok {
		return fmt.Errorf("pair %d %d: no golden line", i, j)
	}
	if got := server.ScoreLine(i, j, r); got != want {
		return fmt.Errorf("pair %d %d: score line %q differs from golden %q", i, j, strings.TrimSpace(got), strings.TrimSpace(want))
	}
	return nil
}

// checkRow compares a served CK34 row with the golden; rows touching
// an uploaded structure (index >= 34) have no golden and must only be
// finite.
func (g goldenScores) checkRow(row server.ScoreRow) error {
	if err := finiteRow(row); err != nil {
		return err
	}
	if row.I >= 34 || row.J >= 34 {
		return nil
	}
	return g.check(row.I, row.J, &tmalign.Result{
		TM1: row.TM1, TM2: row.TM2, RMSD: row.RMSD, AlignedLen: row.AlignedLen, SeqID: row.SeqID,
	})
}

func finiteRow(row server.ScoreRow) error {
	for _, v := range []float64{row.TM1, row.TM2, row.RMSD, row.SeqID} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pair %d %d: non-finite score %v", row.I, row.J, v)
		}
	}
	return nil
}

// simDigest holds the simulated TotalSeconds of every RS119 sweep
// point, recorded at full precision when the benchmark was created
// ("flat 47" or "chips 4" -> "%.17g" value). Simulated times are model
// outputs: any change to them is a behaviour change, not a speed-up.
type simDigest map[string]string

const digestFile = "testdata/rs119_total_seconds.txt"

func loadDigest(root string) (simDigest, error) {
	path := filepath.Join(root, "perfbench", digestFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := simDigest{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		d[f[0]+" "+f[1]] = f[2]
	}
	return d, nil
}

// check compares one sweep point's simulated seconds with the digest.
func (d simDigest) check(point string, totalSeconds float64) error {
	want, ok := d[point]
	if !ok {
		return fmt.Errorf("sweep point %q: not in the digest", point)
	}
	if got := fmt.Sprintf("%.17g", totalSeconds); got != want {
		return fmt.Errorf("sweep point %q: simulated TotalSeconds %s, digest %s", point, got, want)
	}
	return nil
}
