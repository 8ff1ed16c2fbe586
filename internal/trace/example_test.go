package trace_test

import (
	"bytes"
	"fmt"

	"repro/internal/pointset"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Generate a Zipf-topic population and round-trip it through JSON.
func ExampleGenerate() {
	tr, _ := trace.Generate(trace.Config{
		N:      100,
		Box:    pointset.PaperBox2D(),
		Kind:   trace.ZipfTopics,
		Scheme: pointset.RandomIntWeight,
	}, xrand.New(8))
	var buf bytes.Buffer
	_ = tr.WriteJSON(&buf)
	back, _ := trace.ReadJSON(&buf)
	fmt.Println("all users:", len(tr.Users))
	fmt.Println("survived round-trip:", len(back.Users) == len(tr.Users))
	// Output:
	// all users: 100
	// survived round-trip: true
}
