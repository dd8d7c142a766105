open Rox_shred
open Rox_xmldom
open Helpers

let pools () = (Rox_util.Str_pool.create (), Rox_util.Str_pool.create ())

let shred xml =
  let qnames, values = pools () in
  Doc.of_tree ~qnames ~values (Xml_parser.parse_string xml)

(* ---------- Encoding invariants ---------- *)

let test_hand_encoding () =
  (*  pre: 0=docroot 1=a 2=@x 3=b 4=text 5=c *)
  let doc = shred {|<a x="1"><b>t</b><c/></a>|} in
  check_int "node count" 6 (Doc.node_count doc);
  check_bool "kind 0" true (Doc.kind doc 0 = Nodekind.Doc);
  check_bool "kind 1" true (Doc.kind doc 1 = Nodekind.Elem);
  check_bool "kind 2" true (Doc.kind doc 2 = Nodekind.Attr);
  check_bool "kind 3" true (Doc.kind doc 3 = Nodekind.Elem);
  check_bool "kind 4" true (Doc.kind doc 4 = Nodekind.Text);
  check_bool "kind 5" true (Doc.kind doc 5 = Nodekind.Elem);
  check_string "name a" "a" (Doc.name doc 1);
  check_string "name @x" "x" (Doc.name doc 2);
  check_string "value @x" "1" (Doc.value doc 2);
  check_string "value text" "t" (Doc.value doc 4);
  check_int "size doc" 5 (Doc.size doc 0);
  check_int "size a" 4 (Doc.size doc 1);
  check_int "size b" 1 (Doc.size doc 3);
  check_int "size c" 0 (Doc.size doc 5);
  check_int "level a" 1 (Doc.level doc 1);
  check_int "level @x" 2 (Doc.level doc 2);
  check_int "level text" 3 (Doc.level doc 4);
  check_int "parent a" 0 (Doc.parent doc 1);
  check_int "parent b" 1 (Doc.parent doc 3);
  check_int "parent text" 3 (Doc.parent doc 4);
  check_int "parent docroot" (-1) (Doc.parent doc 0)

let encoding_invariants doc =
  let n = Doc.node_count doc in
  let ok = ref true in
  for pre = 0 to n - 1 do
    let size = Doc.size doc pre in
    if pre + size >= n then ok := false;
    let parent = Doc.parent doc pre in
    if pre = 0 then (if parent <> -1 then ok := false)
    else begin
      (* Parent subtree contains the child; level is parent + 1. *)
      if not (Doc.in_subtree doc ~root:parent pre) then ok := false;
      if Doc.level doc pre <> Doc.level doc parent + 1 then ok := false
    end
  done;
  (* Sizes are consistent: node's subtree = sum of child subtrees (+1 each). *)
  for pre = 0 to n - 1 do
    let first, last = Navigation.subtree_bounds doc pre in
    let i = ref first in
    let acc = ref 0 in
    while !i <= last do
      acc := !acc + Doc.size doc !i + 1;
      i := !i + Doc.size doc !i + 1
    done;
    if !acc <> Doc.size doc pre then ok := false
  done;
  !ok

let prop_invariants =
  qtest ~count:150 "pre/size/level invariants on random docs" QCheck.small_int (fun seed ->
      let qnames, values = pools () in
      encoding_invariants (Doc.of_tree ~qnames ~values (random_tree seed)))

let prop_unshred_roundtrip =
  qtest ~count:150 "unshred (of_tree t) = t" QCheck.small_int (fun seed ->
      let t = random_tree seed in
      let qnames, values = pools () in
      Navigation.unshred (Doc.of_tree ~qnames ~values t) = t)

let prop_node_count =
  qtest ~count:100 "Doc.node_count = Tree.node_count" QCheck.small_int (fun seed ->
      let t = random_tree seed in
      let qnames, values = pools () in
      Doc.node_count (Doc.of_tree ~qnames ~values t) = Tree.node_count t)

(* ---------- Builder ---------- *)

let test_builder_errors () =
  let qnames, values = pools () in
  let b = Doc.Builder.create ~qnames ~values () in
  Doc.Builder.open_element b "a";
  Doc.Builder.text b "x";
  (match Doc.Builder.attribute b "late" "v" with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "attribute after content must fail");
  (match Doc.Builder.finish b with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "finish with open element must fail");
  Doc.Builder.close_element b;
  ignore (Doc.Builder.finish b : Doc.t)

let test_builder_empty () =
  let qnames, values = pools () in
  let b = Doc.Builder.create ~qnames ~values () in
  match Doc.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty document must fail"

let test_shared_pools () =
  let qnames, values = pools () in
  let d1 = Doc.of_tree ~qnames ~values (Xml_parser.parse_string "<a>same</a>") in
  let d2 = Doc.of_tree ~qnames ~values (Xml_parser.parse_string "<b>same</b>") in
  (* Text value ids are shared across documents. *)
  check_int "shared value id" (Doc.value_id d1 2) (Doc.value_id d2 2)

(* A chain nested [depth] deep: each element's level comes from its
   parent's row, so shredding stays linear in the node count. *)
let test_deep_chain () =
  let depth = 100_000 in
  let node = ref (Tree.element "a" []) in
  for _ = 2 to depth do
    node := Tree.element "a" [ !node ]
  done;
  let qnames, values = pools () in
  let doc = Doc.of_tree ~qnames ~values (Tree.document !node) in
  check_int "node count" (depth + 1) (Doc.node_count doc);
  check_int "deepest level" depth (Doc.level doc depth);
  check_int "deepest parent" (depth - 1) (Doc.parent doc depth);
  check_int "root size" depth (Doc.size doc 0)

(* ---------- Navigation ---------- *)

let test_children_attributes () =
  let doc = shred {|<a x="1" y="2"><b><c/></b>t<d/></a>|} in
  (* pre: 0 doc, 1 a, 2 @x, 3 @y, 4 b, 5 c, 6 text, 7 d *)
  check_bool "children of a" true (Navigation.children doc 1 = [| 4; 6; 7 |]);
  check_bool "attrs of a" true (Navigation.attributes doc 1 = [| 2; 3 |]);
  check_bool "children of b" true (Navigation.children doc 4 = [| 5 |]);
  check_bool "ancestors of c" true (Navigation.ancestors doc 5 = [| 4; 1; 0 |]);
  check_int "root element" 1 (Navigation.root_element doc)

let test_siblings () =
  let doc = shred "<a><b><x/></b><c/><d/></a>" in
  (* pre: 0 doc, 1 a, 2 b, 3 x, 4 c, 5 d *)
  check_bool "next of b" true (Navigation.next_sibling doc 2 = Some 4);
  check_bool "next of c" true (Navigation.next_sibling doc 4 = Some 5);
  check_bool "next of d" true (Navigation.next_sibling doc 5 = None);
  check_bool "prev of d" true (Navigation.prev_sibling doc 5 = Some 4);
  check_bool "prev of b" true (Navigation.prev_sibling doc 2 = None);
  check_int "following_first of b" 4 (Navigation.following_first doc 2)

let test_in_subtree () =
  let doc = shred "<a><b><x/></b><c/></a>" in
  check_bool "x in b" true (Doc.in_subtree doc ~root:2 3);
  check_bool "c not in b" false (Doc.in_subtree doc ~root:2 4);
  check_bool "not self" false (Doc.in_subtree doc ~root:2 2);
  check_bool "all in docroot" true (Doc.is_ancestor doc ~anc:0 4)

(* ---------- Nodekind ---------- *)

let test_nodekind () =
  for i = 0 to 5 do
    check_int "roundtrip" i (Nodekind.to_int (Nodekind.of_int i))
  done;
  (match Nodekind.of_int 6 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "of_int 6 must fail");
  check_bool "matches any" true (Nodekind.matches Nodekind.Any Nodekind.Pi);
  check_bool "matches kind" true (Nodekind.matches (Nodekind.Kind Nodekind.Text) Nodekind.Text);
  check_bool "mismatch" false (Nodekind.matches (Nodekind.Kind Nodekind.Text) Nodekind.Elem)

let suite =
  [
    Alcotest.test_case "hand encoding" `Quick test_hand_encoding;
    prop_invariants;
    prop_unshred_roundtrip;
    prop_node_count;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "builder empty" `Quick test_builder_empty;
    Alcotest.test_case "shared pools" `Quick test_shared_pools;
    Alcotest.test_case "100k-deep chain" `Quick test_deep_chain;
    Alcotest.test_case "children and attributes" `Quick test_children_attributes;
    Alcotest.test_case "siblings" `Quick test_siblings;
    Alcotest.test_case "in_subtree" `Quick test_in_subtree;
    Alcotest.test_case "nodekind" `Quick test_nodekind;
  ]
