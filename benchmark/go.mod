module llmms/benchmark

go 1.22

require llmms v0.0.0

replace llmms => ../
