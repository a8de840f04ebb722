module splapi/cmd/benchmark

go 1.22

require splapi v0.0.0

replace splapi => ../..
