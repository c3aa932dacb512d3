(** The distributed counter as a {!Core.Sequential_object.OBJECT} — the
    paper's structure, re-derived from the generic spine so the test
    suite can confirm that carrying an object through the engine changes
    no delivery of {!Core.Retire_counter} (or of [Baselines.Central]). *)

type state = int

type operation = Inc

type result = int

let name = "counter"

let initial = 0

let apply state Inc = (state + 1, state)

let operation_to_string Inc = "inc"

let result_to_string = string_of_int
