package repro_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBinaryGoldenStdout builds the examples and the hybridmimo CLI and
// checks that each deterministic run prints exactly its committed
// testdata/stdout golden. To re-baseline after an intentional output
// change, rerun the command and overwrite the golden, e.g.
//
//	go run ./cmd/hybridmimo -users 4 -reads 20 -solver gs+ra > testdata/stdout/hybridmimo-gs-ra.txt
func TestBinaryGoldenStdout(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./examples/quickstart", "./examples/basestation", "./examples/codeduplink",
		"./examples/pipeline", "./cmd/hybridmimo")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		golden string
		cmd    string
		args   []string
	}{
		{"quickstart", "quickstart", nil},
		{"basestation", "basestation", nil},
		{"codeduplink", "codeduplink", nil},
		{"pipeline", "pipeline", nil},
		{"hybridmimo-gs-ra", "hybridmimo", []string{"-users", "4", "-reads", "20", "-solver", "gs+ra"}},
		{"hybridmimo-zf-ra-embed", "hybridmimo", []string{"-users", "4", "-reads", "20", "-solver", "zf+ra", "-embed"}},
		{"hybridmimo-random-ra-fallback", "hybridmimo",
			[]string{"-users", "4", "-reads", "20", "-solver", "random+ra", "-fault-prog", "1", "-fallback"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "stdout", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
			run.Dir = t.TempDir()
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.cmd, tc.args, err, stderr.Bytes())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("%s %v stdout differs from its golden:\n--- got\n%s--- want\n%s", tc.cmd, tc.args, stdout.Bytes(), want)
			}
		})
	}
}
