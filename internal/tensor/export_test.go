package tensor

// SetAVXKernel selects the AVX micro-kernel (on) or the Go one (off) and
// returns a function that restores the init-time choice. Only tests switch
// kernels, and only when AVXKernel reported true.
func SetAVXKernel(on bool) (restore func()) {
	saved := useAVX
	useAVX = on
	return func() { useAVX = saved }
}
