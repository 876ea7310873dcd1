type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size

let ensure_room t filler =
  if Array.length t.data = 0 then t.data <- Array.make 8 filler
  else if t.size = Array.length t.data then begin
    let data = Array.make (2 * Array.length t.data) filler in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t x =
  ensure_room t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i name =
  if i < 0 || i >= t.size then invalid_arg ("Dynarray." ^ name ^ ": index out of bounds")

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.size

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
