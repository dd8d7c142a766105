exception Parse_error of { line : int; column : int; message : string }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  keep_whitespace : bool;
}

let error st message =
  raise (Parse_error { line = st.line; column = st.pos - st.bol + 1; message })

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let expect st c =
  if eof st then error st (Printf.sprintf "expected %C, found end of input" c);
  if peek st <> c then error st (Printf.sprintf "expected %C, found %C" c (peek st));
  advance st

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (eof st)) && is_space (peek st) do advance st done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do advance st done;
  String.sub st.src start (st.pos - start)

(* Decode one reference after '&' has been consumed. *)
let parse_reference st buf =
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    while (not (eof st)) && peek st <> ';' do advance st done;
    let digits = String.sub st.src start (st.pos - start) in
    expect st ';';
    let code =
      match int_of_string_opt (if hex then "0x" ^ digits else digits) with
      | Some c when c >= 0 -> c
      | _ -> error st "bad character reference"
    in
    (* UTF-8 encode. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  end
  else begin
    let name = parse_name st in
    expect st ';';
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | other -> error st (Printf.sprintf "unknown entity &%s;" other)
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then error st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      advance st;
      parse_reference st buf;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let starts_with st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = prefix

let skip_until st marker =
  let n = String.length marker in
  let rec loop () =
    if eof st then error st (Printf.sprintf "unterminated construct, expected %s" marker)
    else if starts_with st marker then
      for _ = 1 to n do advance st done
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let capture_until st marker =
  let start = st.pos in
  let n = String.length marker in
  let rec loop () =
    if eof st then error st (Printf.sprintf "unterminated construct, expected %s" marker)
    else if starts_with st marker then begin
      let content = String.sub st.src start (st.pos - start) in
      for _ = 1 to n do advance st done;
      content
    end
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let is_blank s =
  let rec check i = i >= String.length s || (is_space s.[i] && check (i + 1)) in
  check 0

let rec parse_misc st =
  (* Comments / PIs / whitespace allowed in prolog and epilog. *)
  skip_space st;
  if starts_with st "<!--" then begin
    st.pos <- st.pos + 4;
    skip_until st "-->";
    parse_misc st
  end
  else if starts_with st "<?" then begin
    st.pos <- st.pos + 2;
    skip_until st "?>";
    parse_misc st
  end
  else if starts_with st "<!DOCTYPE" then begin
    (* Skip to matching '>'; internal subsets with brackets are balanced. *)
    let depth = ref 0 in
    let rec loop () =
      if eof st then error st "unterminated DOCTYPE"
      else begin
        (match peek st with
         | '[' -> incr depth
         | ']' -> decr depth
         | '>' when !depth = 0 ->
           advance st;
           raise Exit
         | _ -> ());
        advance st;
        loop ()
      end
    in
    (try loop () with Exit -> ());
    parse_misc st
  end

let rec parse_element st =
  expect st '<';
  let tag = Qname.of_string (parse_name st) in
  let attrs = ref [] in
  let rec parse_attrs () =
    skip_space st;
    if is_name_start (peek st) then begin
      let name = Qname.of_string (parse_name st) in
      skip_space st;
      expect st '=';
      skip_space st;
      let value = parse_attr_value st in
      attrs := { Tree.name; value } :: !attrs;
      parse_attrs ()
    end
  in
  parse_attrs ();
  skip_space st;
  if starts_with st "/>" then begin
    st.pos <- st.pos + 2;
    { Tree.tag; attrs = List.rev !attrs; children = [] }
  end
  else begin
    expect st '>';
    let children = parse_content st tag in
    { Tree.tag; attrs = List.rev !attrs; children }
  end

and parse_content st open_tag =
  let children = ref [] in
  let buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if st.keep_whitespace || not (is_blank s) then
        children := Tree.Text s :: !children
    end
  in
  let rec loop () =
    if eof st then error st "unexpected end of input inside element"
    else if starts_with st "</" then begin
      flush_text ();
      st.pos <- st.pos + 2;
      let name = Qname.of_string (parse_name st) in
      skip_space st;
      expect st '>';
      if not (Qname.equal name open_tag) then
        error st
          (Printf.sprintf "mismatched close tag </%s> for <%s>" (Qname.to_string name)
             (Qname.to_string open_tag))
    end
    else if starts_with st "<!--" then begin
      flush_text ();
      st.pos <- st.pos + 4;
      let content = capture_until st "-->" in
      children := Tree.Comment content :: !children;
      loop ()
    end
    else if starts_with st "<![CDATA[" then begin
      st.pos <- st.pos + 9;
      let content = capture_until st "]]>" in
      Buffer.add_string buf content;
      loop ()
    end
    else if starts_with st "<?" then begin
      flush_text ();
      st.pos <- st.pos + 2;
      let target = parse_name st in
      skip_space st;
      let content = capture_until st "?>" in
      children := Tree.Pi (target, content) :: !children;
      loop ()
    end
    else if peek st = '<' then begin
      flush_text ();
      let e = parse_element st in
      children := Tree.Element e :: !children;
      loop ()
    end
    else if peek st = '&' then begin
      advance st;
      parse_reference st buf;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !children

let parse_string ?(keep_whitespace = false) src =
  let st = { src; pos = 0; line = 1; bol = 0; keep_whitespace } in
  parse_misc st;
  if peek st <> '<' then error st "expected root element";
  let root = parse_element st in
  parse_misc st;
  skip_space st;
  if not (eof st) then error st "trailing content after root element";
  { Tree.root }

let parse_file ?keep_whitespace path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  parse_string ?keep_whitespace content
