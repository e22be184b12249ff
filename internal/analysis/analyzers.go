package analysis

// All returns the micvet analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Goroleak,
		Resclose,
		Wallclock,
	}
}
