package pointset

// SetMinPiece sets the fewest bytes a piece of a split "points" scan is cut
// from, so that a test can split small inputs, and returns a func that
// restores it.
func SetMinPiece(n int) (restore func()) {
	old := minPiece
	minPiece = n
	return func() { minPiece = old }
}
