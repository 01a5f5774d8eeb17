package wire

// PoisonByte is what SetPoison(true) fills recycled buffers with.
const PoisonByte = poisonByte

// SetPoison switches PutBuf's poisoning of recycled buffers and GetBuf's
// check of it (lifetime_test.go).
func SetPoison(on bool) { poisonOnPut.Store(on) }

// PoisonBroken counts recycled buffers GetBuf found written to while they
// sat in the pool.
func PoisonBroken() uint64 { return poisonBroken.Load() }
