module rcmp/bench

go 1.24

require rcmp v0.0.0

replace rcmp => ../
