type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Str a, Str b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
    List.length a = List.length b
    && List.for_all2
         (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
         a b
  | _ -> false

(* ---------------------------------------------------------------- write *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  escape_to buf s;
  Buffer.contents buf

(* %.17g round-trips every double exactly; try the shorter %.12g first and
   keep it when it already round-trips, so typical values stay readable. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let add_float buf f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    Buffer.add_string buf "null"
  else Buffer.add_string buf (float_repr f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as atom -> to_buffer buf atom
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          escape_to buf k;
          Buffer.add_string buf ": ";
          go (depth + 1) v)
        kvs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let pp ppf j = Format.pp_print_string ppf (to_string j)

(* ----------------------------------------------------------------- read *)

exception Parse of int * string

let default_max_depth = 512
let default_max_string = 16 * 1024 * 1024
let default_max_number = 512

let of_string ?(max_depth = default_max_depth)
    ?(max_string = default_max_string) ?(max_number = default_max_number) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if Buffer.length buf > max_string then
        fail (Printf.sprintf "string longer than %d bytes" max_string);
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let c = parse_hex4 () in
          (* we only emit \u00xx for control chars; decode the BMP point
             as UTF-8 so foreign input survives a round trip too *)
          if c < 0x80 then Buffer.add_char buf (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xc0 lor (c lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xe0 lor (c lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
          end
        | _ -> fail "bad escape");
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        saw := true;
        advance ()
      done;
      if not !saw then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    if !pos - start > max_number then
      fail (Printf.sprintf "number literal longer than %d bytes" max_number);
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  (* [depth] counts open containers; bounding it keeps recursion depth — and
     hence native stack use — proportional to [max_depth], so adversarial
     ["[[[[..."] input is a clean [Error], not a stack overflow. *)
  let rec parse_value depth =
    if depth > max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else
        let rec elems acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)
  | exception Failure msg -> Error ("JSON parse error: " ^ msg)

(* ------------------------------------------------------------ accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let field k j =
  match member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let typed what conv k j =
  Result.bind (field k j) (fun v ->
      Option.to_result (conv v)
        ~none:(Printf.sprintf "field %S is not %s" k what))

let int_field = typed "an integer" to_int_opt
let string_field = typed "a string" to_string_opt
let bool_field = typed "a boolean" (function Bool b -> Some b | _ -> None)
