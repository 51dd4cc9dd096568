package trace

// StrideSpec describes a regular strided sweep over a memory region:
// Count references starting at Base, advancing Stride bytes each time, each
// preceded by Work computation cycles.
type StrideSpec struct {
	Base   uint64
	Stride uint64
	Count  int
	Kind   Kind
	Dep    bool
	Work   uint32
}

// Stream returns a fresh stream over the spec.
func (sp StrideSpec) Stream() Stream {
	i := 0
	return Fill(func(buf []Ref) ([]Ref, bool) {
		for ; i < sp.Count && len(buf) < cap(buf); i++ {
			buf = append(buf, Ref{
				Addr: sp.Base + uint64(i)*sp.Stride,
				Kind: sp.Kind,
				Dep:  sp.Dep,
				Work: sp.Work,
			})
		}
		return buf, i < sp.Count
	})
}
