// Package cli implements the logic behind the cmd/ executables as testable
// functions: each tool parses its own flag set, reads/writes through
// injected streams, and returns an error instead of exiting. The cmd/
// wrappers only wire os.Stdin/Stdout/Stderr and os.Exit.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/trace"
)

// withTimeout applies the tools' shared -timeout semantics: 0 keeps the
// caller's context (normalizing nil to Background), a positive duration adds
// a deadline. The returned cancel must always be called.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// cancelNote reports a run cut short by -timeout or an interrupt. The tools
// treat cancellation as a clean exit: partial results are printed, this note
// explains why they are partial, and the process exits zero.
func cancelNote(stdout io.Writer, err error) {
	fmt.Fprintf(stdout, "note: run stopped early (%v); output reflects only the work completed before cancellation\n", err)
}

// describeCenter renders a broadcast content vector, labelling each
// coordinate with the trace's keyword for that dimension when available
// (the paper's "m keywords in m-D space" reading of interest vectors).
func describeCenter(c []float64, keywords []string) string {
	if len(keywords) != len(c) {
		v := make([]string, len(c))
		for i, x := range c {
			v[i] = fmt.Sprintf("%.3f", x)
		}
		return "(" + strings.Join(v, ", ") + ")"
	}
	parts := make([]string, len(c))
	for i, x := range c {
		parts[i] = fmt.Sprintf("%s=%.3f", keywords[i], x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ReadTrace loads a trace from a path: "-" reads JSON from stdin; a ".csv"
// suffix selects the CSV parser, anything else JSON.
func ReadTrace(path string, stdin io.Reader) (*trace.Trace, error) {
	if path == "-" {
		return trace.ReadJSON(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.ReadCSV(f)
	}
	return trace.ReadJSON(f)
}
