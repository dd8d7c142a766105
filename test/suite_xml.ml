open Rox_xmldom
open Helpers

(* ---------- Qname ---------- *)

let test_qname () =
  let q = Qname.of_string "xs:int" in
  check_string "prefix" "xs" q.Qname.prefix;
  check_string "local" "int" q.Qname.local;
  check_string "roundtrip" "xs:int" (Qname.to_string q);
  let plain = Qname.of_string "person" in
  check_string "no prefix" "" plain.Qname.prefix;
  check_bool "equal" true (Qname.equal plain (Qname.make "person"));
  check_bool "compare by local" true (Qname.compare (Qname.make "a") (Qname.make "b") < 0)

(* ---------- Parser ---------- *)

let parse = Xml_parser.parse_string

let test_parse_simple () =
  let t = parse "<a><b>hi</b><c/></a>" in
  check_string "root tag" "a" (Qname.to_string t.Tree.root.Tree.tag);
  check_int "children" 2 (List.length t.Tree.root.Tree.children);
  match t.Tree.root.Tree.children with
  | [ Tree.Element b; Tree.Element c ] ->
    check_string "b" "b" (Qname.to_string b.Tree.tag);
    check_string "text" "hi" (Tree.text_content b);
    check_string "c" "c" (Qname.to_string c.Tree.tag);
    check_int "c empty" 0 (List.length c.Tree.children)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_attributes () =
  let t = parse {|<a x="1" y='two "quoted"'/>|} in
  match t.Tree.root.Tree.attrs with
  | [ x; y ] ->
    check_string "x" "1" x.Tree.value;
    check_string "y" {|two "quoted"|} y.Tree.value
  | _ -> Alcotest.fail "expected two attributes"

let test_parse_entities () =
  let t = parse "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>" in
  check_string "decoded" {|<tag> & "q" 'a' AB|} (Tree.text_content t.Tree.root)

let test_parse_entity_in_attr () =
  let t = parse {|<a v="&amp;&lt;"/>|} in
  match t.Tree.root.Tree.attrs with
  | [ v ] -> check_string "attr decoded" "&<" v.Tree.value
  | _ -> Alcotest.fail "expected attribute"

let test_parse_cdata () =
  let t = parse "<a><![CDATA[<raw> & stuff]]></a>" in
  check_string "cdata" "<raw> & stuff" (Tree.text_content t.Tree.root)

let test_parse_comment_pi () =
  let t = parse "<a><!-- note --><?php echo ?><b/></a>" in
  match t.Tree.root.Tree.children with
  | [ Tree.Comment c; Tree.Pi (target, _); Tree.Element _ ] ->
    check_string "comment" " note " c;
    check_string "pi target" "php" target
  | _ -> Alcotest.fail "expected comment, pi, element"

let test_parse_prolog () =
  let t = parse "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>" in
  check_string "root" "a" (Qname.to_string t.Tree.root.Tree.tag)

let test_parse_whitespace_dropped () =
  let t = parse "<a>\n  <b/>\n</a>" in
  check_int "no blank text" 1 (List.length t.Tree.root.Tree.children)

let test_parse_whitespace_kept () =
  let t = Xml_parser.parse_string ~keep_whitespace:true "<a>\n  <b/>\n</a>" in
  check_int "blank text kept" 3 (List.length t.Tree.root.Tree.children)

let test_parse_mixed_content () =
  let t = parse "<p>one <b>two</b> three</p>" in
  check_int "three children" 3 (List.length t.Tree.root.Tree.children);
  check_string "full text" "one two three" (Tree.text_content t.Tree.root)

let expect_error src =
  match parse src with
  | exception Xml_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected parse error for: " ^ src)

let test_parse_errors () =
  expect_error "<a><b></a>";
  expect_error "<a>";
  expect_error "no markup";
  expect_error "<a></a><b></b>";
  expect_error "<a attr=oops/>";
  expect_error "<a>&unknown;</a>";
  expect_error "";
  (* A truncated document names the end of input, not a NUL byte. *)
  match parse "<a></a" with
  | exception Xml_parser.Parse_error { message; _ } ->
    check_string "truncated end tag" "expected '>', found end of input" message
  | _ -> Alcotest.fail "expected parse error for a truncated end tag"

let test_error_location () =
  match parse "<a>\n<b></c>\n</a>" with
  | exception Xml_parser.Parse_error { line; _ } -> check_int "line number" 2 line
  | _ -> Alcotest.fail "expected error"

(* ---------- Writer ---------- *)

let test_escapes () =
  check_string "text" "a&lt;b&gt;c&amp;d\"e" (Xml_writer.escape_text "a<b>c&d\"e");
  check_string "attr" "a&lt;b&gt;c&amp;d&quot;e" (Xml_writer.escape_attr "a<b>c&d\"e")

let test_write_simple () =
  let t = Tree.document (Tree.element ~attrs:[ ("x", "1") ] "a" [ Tree.text "hi"; Tree.element "b" [] ]) in
  check_string "compact" {|<a x="1">hi<b/></a>|} (Xml_writer.to_string t)

let prop_roundtrip =
  qtest ~count:200 "parse (to_string t) = t" QCheck.small_int (fun seed ->
      let t = random_tree_no_blank seed in
      let s = Xml_writer.to_string t in
      Xml_parser.parse_string s = t)

let prop_roundtrip_indented =
  qtest ~count:100 "indented output reparses to same tree" QCheck.small_int (fun seed ->
      let t = random_tree_no_blank seed in
      let s = Xml_writer.to_string ~indent:true t in
      Xml_parser.parse_string s = t)

let prop_serialized_size =
  qtest ~count:200 "serialized_size = |to_string|" QCheck.small_int (fun seed ->
      let t = random_tree seed in
      Xml_writer.serialized_size t = String.length (Xml_writer.to_string t))

let test_node_count () =
  let t = parse {|<a x="1"><b>t</b><!--c--><?p i?></a>|} in
  (* doc root + a + @x + b + text + comment + pi = 7 *)
  check_int "node_count" 7 (Tree.node_count t)

let test_find_elements () =
  let t = parse "<a><b/><c><b><b/></b></c></a>" in
  check_int "3 b elements" 3 (List.length (Tree.find_elements t "b"))

let suite =
  [
    Alcotest.test_case "qname" `Quick test_qname;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse attributes" `Quick test_parse_attributes;
    Alcotest.test_case "parse entities" `Quick test_parse_entities;
    Alcotest.test_case "parse entity in attr" `Quick test_parse_entity_in_attr;
    Alcotest.test_case "parse cdata" `Quick test_parse_cdata;
    Alcotest.test_case "parse comment and pi" `Quick test_parse_comment_pi;
    Alcotest.test_case "parse prolog and doctype" `Quick test_parse_prolog;
    Alcotest.test_case "whitespace dropped" `Quick test_parse_whitespace_dropped;
    Alcotest.test_case "whitespace kept" `Quick test_parse_whitespace_kept;
    Alcotest.test_case "mixed content" `Quick test_parse_mixed_content;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error location" `Quick test_error_location;
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "write simple" `Quick test_write_simple;
    prop_roundtrip;
    prop_roundtrip_indented;
    prop_serialized_size;
    Alcotest.test_case "node count" `Quick test_node_count;
    Alcotest.test_case "find elements" `Quick test_find_elements;
  ]
