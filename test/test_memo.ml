(* The concurrent memo ([Quipper.Memo]) under every shared cache, and the
   one domain fan-out ([Kernel.fan_out]). Every test here runs at most 4
   domains at once. *)

open Quipper
module Kernel = Quipper_sim.Kernel

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Spin until [cond ()] holds: domains here rendezvous on atomics, never
   on wall-clock sleeps. *)
let await cond =
  while not (cond ()) do
    Domain.cpu_relax ()
  done

let spin_for secs =
  let t0 = Sys.time () in
  await (fun () -> Sys.time () -. t0 >= secs)

let run_domains n f =
  List.map Domain.join (List.init n (fun d -> Domain.spawn (fun () -> f d)))

let is_invalid f =
  match f () with
  | _ -> false
  | exception Errors.Error (Errors.Invalid _) -> true

(* ------------------------------------------------------------------ *)
(* Memo                                                                *)

let test_once_per_key () =
  let m = Memo.create () in
  let keys = 20 in
  let computes = Array.init keys (fun _ -> Atomic.make 0) in
  let arrived = Array.init keys (fun _ -> Atomic.make 0) in
  let results =
    run_domains 4 (fun _ ->
        List.init keys (fun k ->
            Atomic.incr arrived.(k);
            fst
              (Memo.find_or_add m k (fun () ->
                   Atomic.incr computes.(k);
                   (* hold the key until every domain has asked for it *)
                   await (fun () -> Atomic.get arrived.(k) = 4);
                   k * k))))
  in
  check "every domain got every value" true
    (List.for_all (fun r -> r = List.init keys (fun k -> k * k)) results);
  check "each key computed exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) computes);
  let s = Memo.stats m in
  checki "one miss per key" keys s.Memo.misses;
  checki "waiters count as hits" (3 * keys) s.Memo.hits;
  checki "entries" keys s.Memo.entries;
  checki "no evictions" 0 s.Memo.evictions

let test_failure_wakes_waiter () =
  let m = Memo.create () in
  let started = Atomic.make false and waiting = Atomic.make false in
  let outcomes =
    run_domains 2 (function
      | 0 -> (
          match
            Memo.find_or_add m "k" (fun () ->
                Atomic.set started true;
                await (fun () -> Atomic.get waiting);
                (* let the other domain block on the in-flight key *)
                spin_for 0.05;
                failwith "boom")
          with
          | _ -> `Value
          | exception Failure _ -> `Raised)
      | _ ->
          await (fun () -> Atomic.get started);
          Atomic.set waiting true;
          let v, hit = Memo.find_or_add m "k" (fun () -> 7) in
          if v = 7 && not hit then `Retried else `Value)
  in
  check "the failing compute raised, the waiter retried" true
    (outcomes = [ `Raised; `Retried ]);
  let s = Memo.stats m in
  check "two misses, the retry stored" true
    (s.Memo.misses = 2 && s.Memo.hits = 0 && s.Memo.entries = 1);
  check "the stored value serves later calls" true
    (Memo.find_or_add m "k" (fun () -> 0) = (7, true))

let test_lru () =
  let m = Memo.create ~capacity:2 () in
  let get k = Memo.find_or_add m k (fun () -> String.uppercase_ascii k) in
  check "a computed" true (get "a" = ("A", false));
  check "b computed" true (get "b" = ("B", false));
  check "a hit" true (get "a" = ("A", true));
  (* b is now the least recently used: inserting c evicts it *)
  check "c computed" true (get "c" = ("C", false));
  check "a survived" true (get "a" = ("A", true));
  check "b was evicted" true (get "b" = ("B", false));
  (* c was used before a's last hit, so b's insertion evicted c *)
  check "a still resident" true (get "a" = ("A", true));
  let s = Memo.stats m in
  check "counters" true
    (s.Memo.hits = 3 && s.Memo.misses = 4 && s.Memo.evictions = 2
   && s.Memo.entries = 2);
  check "capacity below 1 rejected" true
    (match Memo.create ~capacity:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_self_wait () =
  let m = Memo.create () in
  check "a compute asking for its own key raises" true
    (is_invalid (fun () ->
         Memo.find_or_add m 1 (fun () ->
             fst (Memo.find_or_add m 1 (fun () -> 0)))));
  check "the key is not wedged" true
    (Memo.find_or_add m 1 (fun () -> 5) = (5, false))

(* Two domains each computing one key and then asking for the other's:
   whichever asks second would wait on a domain that waits on it. *)
let test_wait_cycle () =
  let m = Memo.create () in
  let started = [| Atomic.make false; Atomic.make false |] in
  let outcomes =
    run_domains 2 (fun d ->
        let mine = d and theirs = 1 - d in
        match
          Memo.find_or_add m mine (fun () ->
              Atomic.set started.(mine) true;
              await (fun () -> Atomic.get started.(theirs));
              fst (Memo.find_or_add m theirs (fun () -> 10 + theirs)))
        with
        | v, _ -> `Value v
        | exception Errors.Error (Errors.Invalid _) -> `Cycle)
  in
  check "one domain broke the cycle, the other finished" true
    (List.sort compare outcomes = List.sort compare [ `Cycle; `Value 10 ]
    || List.sort compare outcomes = List.sort compare [ `Cycle; `Value 11 ])

let memo_suite =
  [
    Alcotest.test_case "one compute per key under 4-domain contention" `Quick
      test_once_per_key;
    Alcotest.test_case "a raising compute wakes a waiter, which retries"
      `Quick test_failure_wakes_waiter;
    Alcotest.test_case "LRU evicts the least recently used; counters" `Quick
      test_lru;
    Alcotest.test_case "self-wait raises instead of blocking" `Quick
      test_self_wait;
    Alcotest.test_case "cross-domain wait cycle raises instead of blocking"
      `Quick test_wait_cycle;
  ]

(* ------------------------------------------------------------------ *)
(* Fan-out                                                             *)

let with_domains d f =
  let saved = !Kernel.num_domains in
  Kernel.num_domains := d;
  Fun.protect ~finally:(fun () -> Kernel.num_domains := saved) f

let chunks n =
  let lock = Mutex.create () and acc = ref [] in
  Kernel.fan_out n (fun lo hi ->
      Mutex.protect lock (fun () -> acc := (lo, hi, Domain.self ()) :: !acc));
  List.sort compare !acc

let distinct_domains l =
  List.length (List.sort_uniq compare (List.map (fun (_, _, d) -> d) l))

let test_partition () =
  with_domains 3 (fun () ->
      check "contiguous deterministic chunks" true
        (List.map (fun (lo, hi, _) -> (lo, hi)) (chunks 10)
        = [ (0, 3); (3, 6); (6, 10) ]);
      check "never more chunks than items" true
        (List.map (fun (lo, hi, _) -> (lo, hi)) (chunks 2) = [ (0, 1); (1, 2) ]);
      checki "one chunk per domain" 3 (distinct_domains (chunks 3)))

let test_nesting () =
  with_domains 2 (fun () ->
      let lock = Mutex.create () and outer = ref [] and inner = ref [] in
      Kernel.fan_out 2 (fun lo hi ->
          let self = Domain.self () in
          Mutex.protect lock (fun () -> outer := (lo, hi, self) :: !outer);
          let got = chunks 8 in
          Mutex.protect lock (fun () -> inner := (self, got) :: !inner));
      checki "two outer workers" 2 (distinct_domains !outer);
      check "every inner fan-out ran as one chunk on its outer worker's domain"
        true
        (List.length !inner = 2
        && List.for_all (fun (self, got) -> got = [ (0, 8, self) ]) !inner);
      checki "a top-level fan-out afterwards spreads again" 2
        (distinct_domains (chunks 8)))

let test_chunk_failure () =
  with_domains 3 (fun () ->
      let done_ = Array.make 3 false in
      check "a failing chunk re-raises" true
        (match
           Kernel.fan_out 3 (fun lo _ ->
               if lo = 1 then failwith "chunk";
               done_.(lo) <- true)
         with
        | () -> false
        | exception Failure _ -> true);
      check "the other chunks ran to completion" true (done_.(0) && done_.(2)))

let fan_out_suite =
  [
    Alcotest.test_case "contiguous deterministic chunks" `Quick test_partition;
    Alcotest.test_case "nested fan-out runs inline on its outer worker" `Quick
      test_nesting;
    Alcotest.test_case "a failing chunk re-raises after every join" `Quick
      test_chunk_failure;
  ]
