package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// sweepPins are the SHA-256 sums of the -out report and of stdout of
// `drvexplore -family F -seeds 200 -j 2 -master 1` for each family. A change
// to the scheduler, the network or the adversary that moves a single
// scheduling choice moves the totals, the bug counts or the shrunk
// reproducers these files carry, so the pins hold every such change to
// byte-identical sweeps.
var sweepPins = []struct {
	family, report, stdout string
}{
	{"lang", "c422695cfffe2f9d084f7403758c24b2449795d8c20ce68420862640cc66abf9", "e21bde8bf97172cd59e3133bd470a079c2423dac00310c3cbe6852ae958221da"},
	{"obj", "2c74ed40e14aaa032584af667492f71218417237bb5d18298e16ec1d7a0c1471", "34b64ac604b890ac5486b4432c5eb214c7762d53843d911869b428bb1cca05d7"},
	{"msg", "8ef8da0e45050f3ade2617a7d493c2372f6ac5be0beef36008786af836c3d7b9", "7358fe971ac99407a479067aaa4b855d12c27d8baeba8dae0f420309a7df39d0"},
}

func TestSweepReportsPinned(t *testing.T) {
	for _, pin := range sweepPins {
		t.Run(pin.family, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), pin.family+".json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-family", pin.family, "-seeds", "200", "-j", "2", "-master", "1", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			report, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(report); got != pin.report {
				t.Errorf("report sha256 %s, pinned %s; report:\n%s", got, pin.report, report)
			}
			if got := sha256Hex([]byte(stdout.String())); got != pin.stdout {
				t.Errorf("stdout sha256 %s, pinned %s; stdout:\n%s", got, pin.stdout, stdout.String())
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
