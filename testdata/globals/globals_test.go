package globals

// Test files may hold package-level tables; the guard skips them.
var cases = []int{1, 2}
