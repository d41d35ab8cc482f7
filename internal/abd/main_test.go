package abd

import (
	"os"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// TestMain runs every test of the package under the maintained ≡ polled
// differential: each step's maintained runnable set must equal a full
// re-poll of every gate, the replica actors' and the clients' included.
func TestMain(m *testing.M) {
	sched.VerifyRunnable(true)
	os.Exit(m.Run())
}
