(* Unit and property tests for the bag substrate: blocks, blockbags, block
   pools, hash sets, and the shared bags. *)

let ctx () = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:1

let pool () = Bag.Block_pool.create ~block_capacity:8 ()

let test_block_basics () =
  let b = Bag.Block.create 4 in
  Alcotest.(check bool) "empty" true (Bag.Block.is_empty b);
  Bag.Block.push b 1;
  Bag.Block.push b 2;
  Alcotest.(check int) "pop lifo" 2 (Bag.Block.pop b);
  Alcotest.(check int) "pop lifo" 1 (Bag.Block.pop b);
  Alcotest.(check bool) "nil chain" true (Bag.Block.is_nil Bag.Block.nil)

let test_blockbag_add_pop () =
  let bag = Bag.Blockbag.create (pool ()) in
  for i = 1 to 100 do
    Bag.Blockbag.add bag i
  done;
  Alcotest.(check int) "size" 100 (Bag.Blockbag.size bag);
  let seen = ref 0 in
  let rec drain () =
    match Bag.Blockbag.pop bag with
    | Some _ ->
        incr seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained" 100 !seen;
  Alcotest.(check bool) "empty" true (Bag.Blockbag.is_empty bag)

let test_blockbag_move_full () =
  let bag = Bag.Blockbag.create (pool ()) in
  for i = 1 to 30 do
    Bag.Blockbag.add bag i
  done;
  (* capacity 8: 30 records = partial head (6) + 3 full blocks *)
  let moved_blocks = ref 0 in
  let moved = Bag.Blockbag.move_all_full_blocks bag ~into:(fun _ -> incr moved_blocks) in
  Alcotest.(check int) "records moved" 24 moved;
  Alcotest.(check int) "blocks moved" 3 !moved_blocks;
  Alcotest.(check int) "leftover" 6 (Bag.Blockbag.size bag)

let test_blockbag_invariant_after_block_splice () =
  let p = pool () in
  let bag = Bag.Blockbag.create p in
  let b = Bag.Block.create 8 in
  for i = 1 to 8 do
    Bag.Block.push b i
  done;
  Bag.Blockbag.add_block bag b;
  Bag.Blockbag.add bag 99;
  Alcotest.(check int) "size" 9 (Bag.Blockbag.size bag);
  let total = ref 0 in
  Bag.Blockbag.iter bag (fun _ -> incr total);
  Alcotest.(check int) "iter covers all" 9 !total

let test_cursor_partition () =
  (* Swap even records to the front, move full blocks after the partition
     point: exactly the DEBRA+ scan step. *)
  let bag = Bag.Blockbag.create (pool ()) in
  for i = 1 to 40 do
    Bag.Blockbag.add bag i
  done;
  let protected = Bag.Hash_set.create ~expected:8 in
  List.iter (fun k -> Bag.Hash_set.insert protected k) [ 2; 4; 6; 8 ];
  let it1 = Bag.Blockbag.cursor bag in
  let it2 = Bag.Blockbag.cursor bag in
  while not (Bag.Blockbag.at_end it1) do
    if Bag.Hash_set.mem protected (Bag.Blockbag.get it1) then begin
      Bag.Blockbag.swap it1 it2;
      Bag.Blockbag.advance it2
    end;
    Bag.Blockbag.advance it1
  done;
  let freed = ref [] in
  let moved =
    Bag.Blockbag.move_full_blocks_after bag it2 ~into:(fun b ->
        for i = 0 to b.Bag.Block.count - 1 do
          freed := b.Bag.Block.data.(i) :: !freed
        done)
  in
  Alcotest.(check bool) "moved some" true (moved > 0);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "protected %d not freed" k)
        false
        (List.mem k !freed))
    [ 2; 4; 6; 8 ];
  (* Every protected record must still be in the bag. *)
  let remaining = ref [] in
  Bag.Blockbag.iter bag (fun x -> remaining := x :: !remaining);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "protected %d still in bag" k)
        true
        (List.mem k !remaining))
    [ 2; 4; 6; 8 ];
  Alcotest.(check int) "nothing lost" 40 (moved + List.length !remaining)

let test_blockbag_drain_blocks () =
  let bag = Bag.Blockbag.create (pool ()) in
  for i = 1 to 30 do
    Bag.Blockbag.add bag i
  done;
  (* capacity 8: 30 records = partial head (6) + 3 full blocks *)
  let blocks = ref [] in
  let moved = Bag.Blockbag.drain_blocks bag ~into:(fun b -> blocks := b :: !blocks) in
  Alcotest.(check int) "records moved" 30 moved;
  Alcotest.(check int) "blocks handed out" 4 (List.length !blocks);
  Alcotest.(check bool) "bag empty" true (Bag.Blockbag.is_empty bag);
  Alcotest.(check int) "size zero" 0 (Bag.Blockbag.size bag);
  (* No empty block is ever handed out. *)
  List.iter
    (fun b ->
      Alcotest.(check bool) "handed block non-empty" false
        (Bag.Block.is_empty b))
    !blocks

(* The aliasing regression for the bulk retire paths: after [drain_blocks]
   the handed-out blocks and the bag share no physical block, the multiset
   of records is preserved exactly, and the bag remains usable — adds after
   the drain must not resurface in blocks the callee now owns. *)
let prop_blockbag_drain_no_aliasing =
  QCheck.Test.make
    ~name:"blockbag drain_blocks: exact multiset, no aliasing, bag reusable"
    ~count:300
    QCheck.(list small_nat)
    (fun xs ->
      let xs = List.map (fun x -> x + 1) xs in
      let bag = Bag.Blockbag.create (pool ()) in
      List.iter (Bag.Blockbag.add bag) xs;
      let handed = ref [] in
      let moved = Bag.Blockbag.drain_blocks bag ~into:(fun b -> handed := b :: !handed) in
      let drained = ref [] in
      List.iter
        (fun b ->
          for i = 0 to b.Bag.Block.count - 1 do
            drained := b.Bag.Block.data.(i) :: !drained
          done)
        !handed;
      moved = List.length xs
      && Bag.Blockbag.is_empty bag
      && List.sort compare xs = List.sort compare !drained
      && List.for_all
           (fun b -> not (List.memq b (Bag.Blockbag.blocks bag)))
           !handed
      && begin
           (* refill past one block: new records must stay in the bag, not
              leak into blocks the callee owns *)
           for i = 1 to 12 do
             Bag.Blockbag.add bag (1_000_000 + i)
           done;
           let refilled = ref [] in
           Bag.Blockbag.iter bag (fun x -> refilled := x :: !refilled);
           Bag.Blockbag.size bag = 12
           && List.length !refilled = 12
           && List.for_all (fun x -> x > 1_000_000) !refilled
           && List.for_all
                (fun b ->
                  List.for_all
                    (fun b' -> not (b == b'))
                    (Bag.Blockbag.blocks bag))
                !handed
         end)

let test_block_pool_recycles () =
  let p = pool () in
  let b1 = Bag.Block_pool.get p in
  Bag.Block_pool.put p b1;
  let b2 = Bag.Block_pool.get p in
  Alcotest.(check bool) "same block recycled" true (b1 == b2);
  Alcotest.(check int) "allocated once" 1 (Bag.Block_pool.allocated p);
  Alcotest.(check int) "recycled once" 1 (Bag.Block_pool.recycled p)

let test_shared_bag () =
  let c = ctx () in
  let sb = Bag.Shared_bag.create () in
  let b = Bag.Block.create 4 in
  for i = 1 to 4 do
    Bag.Block.push b i
  done;
  Bag.Shared_bag.push c sb b;
  Alcotest.(check int) "one block" 1 (Bag.Shared_bag.size_in_blocks sb);
  (match Bag.Shared_bag.pop c sb with
  | Some b' -> Alcotest.(check bool) "same block" true (b == b')
  | None -> Alcotest.fail "pop returned None");
  Alcotest.(check (option reject)) "empty" None
    (Option.map ignore (Bag.Shared_bag.pop c sb))

let test_shared_intbag () =
  let c = ctx () in
  let b = Bag.Shared_intbag.create () in
  for i = 1 to 50 do
    Bag.Shared_intbag.push c b i
  done;
  Alcotest.(check int) "size" 50 (Bag.Shared_intbag.size b);
  let sum = ref 0 in
  let n = Bag.Shared_intbag.drain c b (fun _ x -> sum := !sum + x) in
  Alcotest.(check int) "drained" 50 n;
  Alcotest.(check int) "sum" (50 * 51 / 2) !sum;
  (* Draining allocates nothing per record: EBR drains its limbo bag at
     every epoch advance. *)
  let records = 100_000 in
  for i = 1 to records do
    Bag.Shared_intbag.push c b i
  done;
  let w0 = Gc.minor_words () in
  let n = Bag.Shared_intbag.drain c b (fun _ x -> sum := !sum + x) in
  let per_record = (Gc.minor_words () -. w0) /. float_of_int records in
  Alcotest.(check int) "drained all" records n;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per drained record < 0.1" per_record)
    true (per_record < 0.1)

(* qcheck properties *)

let prop_hashset =
  QCheck.Test.make ~name:"hash_set agrees with a reference set" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let hs = Bag.Hash_set.create ~expected:4 in
      let module IS = Set.Make (Int) in
      let reference =
        List.fold_left
          (fun acc k ->
            Bag.Hash_set.insert hs (k + 1);
            IS.add (k + 1) acc)
          IS.empty keys
      in
      IS.cardinal reference = Bag.Hash_set.population hs
      && IS.for_all (fun k -> Bag.Hash_set.mem hs k) reference
      && not (Bag.Hash_set.mem hs 2000))

let prop_hashset_clear =
  QCheck.Test.make ~name:"hash_set clear really clears" ~count:100
    QCheck.(list (int_bound 100))
    (fun keys ->
      let hs = Bag.Hash_set.create ~expected:4 in
      List.iter (fun k -> Bag.Hash_set.insert hs (k + 1)) keys;
      Bag.Hash_set.clear hs;
      List.for_all (fun k -> not (Bag.Hash_set.mem hs (k + 1))) keys)

let prop_blockbag_multiset =
  QCheck.Test.make ~name:"blockbag preserves the multiset of records"
    ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let xs = List.map (fun x -> x + 1) xs in
      let bag = Bag.Blockbag.create (pool ()) in
      List.iter (Bag.Blockbag.add bag) xs;
      let out = ref [] in
      Bag.Blockbag.iter bag (fun x -> out := x :: !out);
      List.sort compare xs = List.sort compare !out)

(* O(1) bulk transfer: source emptied, destination counts the sum, the
   multiset of records is the union, no block aliased between the bags,
   and the everything-after-head-is-full invariant survives on both. *)
let prop_blockbag_transfer =
  QCheck.Test.make ~name:"blockbag transfer: empty src, summed dst, no aliasing"
    ~count:300
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let xs = List.map (fun x -> x + 1) xs
      and ys = List.map (fun y -> y + 1_000_000) ys in
      let p = pool () in
      let src = Bag.Blockbag.create p and dst = Bag.Blockbag.create p in
      List.iter (Bag.Blockbag.add src) xs;
      List.iter (Bag.Blockbag.add dst) ys;
      Bag.Blockbag.transfer src ~into:dst;
      let full_after_head b =
        match Bag.Blockbag.blocks b with
        | [] -> false (* a bag always owns its head block *)
        | _head :: rest -> List.for_all Bag.Block.is_full rest
      in
      let out = ref [] in
      Bag.Blockbag.iter dst (fun x -> out := x :: !out);
      Bag.Blockbag.is_empty src
      && Bag.Blockbag.size src = 0
      && Bag.Blockbag.size dst = List.length xs + List.length ys
      && List.sort compare (xs @ ys) = List.sort compare !out
      && List.for_all
           (fun b ->
             not (List.memq b (Bag.Blockbag.blocks dst)))
           (Bag.Blockbag.blocks src)
      && full_after_head src && full_after_head dst
      (* src stays usable: refill and drain without disturbing dst *)
      && begin
           Bag.Blockbag.add src 7;
           Bag.Blockbag.pop src = Some 7
           && Bag.Blockbag.size dst = List.length xs + List.length ys
         end)

let () =
  Alcotest.run "bag"
    [
      ( "block",
        [
          Alcotest.test_case "basics" `Quick test_block_basics;
          Alcotest.test_case "pool recycles" `Quick test_block_pool_recycles;
        ] );
      ( "blockbag",
        [
          Alcotest.test_case "add/pop" `Quick test_blockbag_add_pop;
          Alcotest.test_case "move full blocks" `Quick test_blockbag_move_full;
          Alcotest.test_case "splice block" `Quick
            test_blockbag_invariant_after_block_splice;
          Alcotest.test_case "cursor partition" `Quick test_cursor_partition;
          Alcotest.test_case "drain blocks" `Quick test_blockbag_drain_blocks;
          QCheck_alcotest.to_alcotest prop_blockbag_multiset;
          QCheck_alcotest.to_alcotest prop_blockbag_drain_no_aliasing;
          QCheck_alcotest.to_alcotest prop_blockbag_transfer;
        ] );
      ( "shared",
        [
          Alcotest.test_case "shared bag" `Quick test_shared_bag;
          Alcotest.test_case "shared intbag" `Quick test_shared_intbag;
        ] );
      ( "hash_set",
        [
          QCheck_alcotest.to_alcotest prop_hashset;
          QCheck_alcotest.to_alcotest prop_hashset_clear;
        ] );
    ]
