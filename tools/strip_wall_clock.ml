(* Filter: copy stdin to stdout without the measured wall-clock parts
   of the experiments and ablation reports, so the rest can be diffed
   byte for byte against a committed file.

   - A block whose first line starts with "Mapping wall-clock time" is
     dropped up to and including the blank line that ends it.
   - In a table whose header has a "map time (s)" column, every line up
     to the next blank line is cut where that column starts, and
     trailing spaces are removed.

   Usage: hmn_cli experiments --reps 1 | strip_wall_clock *)

let wall_clock_block = "Mapping wall-clock time"
let wall_clock_column = "map time (s)"

(* The index of [sub] in [s], if any. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let rstrip s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

type state = Copy | Drop | Cut of int

let () =
  let rec loop state =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let state =
        match state with
        | Drop -> if line = "" then Copy else Drop
        | Cut col ->
          if line = "" then begin
            print_newline ();
            Copy
          end
          else begin
            print_endline (rstrip (String.sub line 0 (min col (String.length line))));
            Cut col
          end
        | Copy -> (
          if String.starts_with ~prefix:wall_clock_block line then Drop
          else
            match find line wall_clock_column with
            | Some col ->
              print_endline (rstrip (String.sub line 0 col));
              Cut col
            | None ->
              print_endline line;
              Copy)
      in
      loop state
  in
  loop Copy
