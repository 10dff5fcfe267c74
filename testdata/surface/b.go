package surface

func caller() int {
	var t T
	return Used() + t.UsedMethod()
}
