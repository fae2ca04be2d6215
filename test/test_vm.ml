(* Tests for the simulated paged memory: regions, pages/twins, diffs, page
   tables, typed shared-memory access, allocator. *)

module Region = Carlos_vm.Region
module Page = Carlos_vm.Page
module Diff = Carlos_vm.Diff
module Page_table = Carlos_vm.Page_table
module Shm = Carlos_vm.Shm
module Alloc = Carlos_vm.Alloc

let small_region () =
  Region.create ~page_size:256 ~private_bytes:1024 ~noncoherent_bytes:1024
    ~coherent_pages:8 ()

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_locate () =
  let r = small_region () in
  (match Region.locate r (Region.private_base r + 5) with
  | Region.Private 5 -> ()
  | _ -> Alcotest.fail "private");
  (match Region.locate r (Region.noncoherent_base r + 100) with
  | Region.Noncoherent 100 -> ()
  | _ -> Alcotest.fail "noncoherent");
  match Region.locate r (Region.coherent_base r + 300) with
  | Region.Coherent { page = 1; offset = 44 } -> ()
  | _ -> Alcotest.fail "coherent"

let test_region_segv () =
  let r = small_region () in
  let expect_segv addr =
    match Region.locate r addr with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected segmentation violation"
  in
  expect_segv 0;
  expect_segv (Region.private_base r + 1024);
  expect_segv (Region.coherent_base r + (8 * 256))

let test_region_coherent_addr () =
  let r = small_region () in
  let addr = Region.coherent_addr r ~page:2 ~offset:10 in
  match Region.locate r addr with
  | Region.Coherent { page = 2; offset = 10 } -> ()
  | _ -> Alcotest.fail "roundtrip"

let test_region_bad_page_size () =
  match
    Region.create ~page_size:100 ~private_bytes:0 ~noncoherent_bytes:0
      ~coherent_pages:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non power of two accepted"

(* ------------------------------------------------------------------ *)
(* Diff *)

let test_diff_empty () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  let d = Diff.create ~page:0 ~twin ~current in
  Alcotest.(check bool) "empty" true (Diff.is_empty d);
  Alcotest.(check int) "no changed bytes" 0 (Diff.changed_bytes d)

let test_diff_roundtrip_simple () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  Bytes.set current 3 'x';
  Bytes.set current 4 'y';
  Bytes.set current 60 'z';
  let d = Diff.create ~page:0 ~twin ~current in
  Alcotest.(check int) "two runs" 2 (Diff.run_count d);
  Alcotest.(check int) "changed" 3 (Diff.changed_bytes d);
  let target = Bytes.copy twin in
  Diff.apply d target;
  Alcotest.(check string) "reconstructs" (Bytes.to_string current)
    (Bytes.to_string target)

let test_diff_idempotent () =
  let twin = Bytes.make 32 '\000' in
  let current = Bytes.copy twin in
  Bytes.set current 10 'q';
  let d = Diff.create ~page:0 ~twin ~current in
  let target = Bytes.copy twin in
  Diff.apply d target;
  Diff.apply d target;
  Alcotest.(check string) "idempotent" (Bytes.to_string current)
    (Bytes.to_string target)

let test_diff_size_accounting () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  Bytes.set current 0 'x';
  let d = Diff.create ~page:0 ~twin ~current in
  (* 8 header + 4 descriptor + 1 data byte *)
  Alcotest.(check int) "wire size" 13 (Diff.size_bytes d)

let bytes_gen len =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (return len)))

let prop_diff_roundtrip =
  let gen =
    QCheck.make
      ~print:(fun (a, b) -> Bytes.to_string a ^ " / " ^ Bytes.to_string b)
      QCheck.Gen.(bytes_gen 128 >>= fun a -> bytes_gen 128 >|= fun b -> (a, b))
  in
  QCheck.Test.make ~name:"diff: apply(create(t,c), copy t) = c" ~count:300 gen
    (fun (twin, current) ->
      let d = Diff.create ~page:0 ~twin ~current in
      let target = Bytes.copy twin in
      Diff.apply d target;
      Bytes.equal target current)

let prop_diff_disjoint_writers_commute =
  (* Two writers touching disjoint ranges of a page: applying their diffs
     in either order yields the same result (multiple-writer protocol). *)
  let gen = QCheck.(pair (int_range 0 63) (int_range 64 127)) in
  QCheck.Test.make ~name:"diff: disjoint diffs commute" ~count:200 gen
    (fun (i, j) ->
      let base = Bytes.make 128 '\000' in
      let w1 = Bytes.copy base and w2 = Bytes.copy base in
      Bytes.set w1 i 'A';
      Bytes.set w2 j 'B';
      let d1 = Diff.create ~page:0 ~twin:base ~current:w1 in
      let d2 = Diff.create ~page:0 ~twin:base ~current:w2 in
      let t12 = Bytes.copy base and t21 = Bytes.copy base in
      Diff.apply d1 t12;
      Diff.apply d2 t12;
      Diff.apply d2 t21;
      Diff.apply d1 t21;
      Bytes.equal t12 t21 && Bytes.get t12 i = 'A' && Bytes.get t12 j = 'B')

(* Reference model: the list-of-runs encoder the flat encoding replaced,
   one [(offset, bytes)] pair per maximal differing run. *)
module Ref_diff = struct
  let create ~twin ~current =
    let len = Bytes.length twin in
    let runs = ref [] and i = ref 0 in
    while !i < len do
      if Bytes.get twin !i <> Bytes.get current !i then begin
        let start = !i in
        while !i < len && Bytes.get twin !i <> Bytes.get current !i do
          incr i
        done;
        runs := (start, Bytes.sub current start (!i - start)) :: !runs
      end
      else incr i
    done;
    List.rev !runs

  let apply runs target =
    List.iter
      (fun (off, data) -> Bytes.blit data 0 target off (Bytes.length data))
      runs

  let changed_bytes runs =
    List.fold_left (fun acc (_, data) -> acc + Bytes.length data) 0 runs

  let size_bytes runs = 8 + (4 * List.length runs) + changed_bytes runs
end

(* Which bytes of a page a generated writer changes. *)
type diff_shape = Sparse | Dense | Random | Alternating | Last_byte | Straddle

let shape_name = function
  | Sparse -> "sparse"
  | Dense -> "dense"
  | Random -> "random"
  | Alternating -> "alternating"
  | Last_byte -> "last-byte"
  | Straddle -> "straddle"

let mask_gen len shape =
  let open QCheck.Gen in
  let with_probability p =
    array_size (return len) (map (fun x -> x < p) (float_bound_exclusive 1.0))
  in
  match shape with
  | Sparse -> with_probability 0.05
  | Dense -> with_probability 0.9
  | Random -> with_probability 0.5
  | Alternating ->
    int_bound 1 >|= fun phase -> Array.init len (fun i -> i mod 2 = phase)
  | Last_byte -> return (Array.init len (fun i -> i = len - 1))
  | Straddle ->
    (* A few runs, each crossing an 8-byte boundary of the page. *)
    let boundaries = (len - 1) / 8 in
    if boundaries = 0 then with_probability 0.5
    else
      list_size (int_range 1 3)
        (triple (int_range 1 boundaries) (int_range 1 7) (int_range 1 8))
      >|= fun runs ->
      let m = Array.make len false in
      List.iter
        (fun (k, before, after) ->
          for i = (8 * k) - before to min (len - 1) ((8 * k) + after - 1) do
            m.(i) <- true
          done)
        runs;
      m

(* [current] differs from [twin] exactly where [mask] is set. *)
let writer_gen twin =
  let open QCheck.Gen in
  let len = Bytes.length twin in
  oneofl [ Sparse; Dense; Random; Alternating; Last_byte; Straddle ]
  >>= fun shape ->
  mask_gen len shape >>= fun mask ->
  array_size (return len) (int_range 1 255) >|= fun flips ->
  let current =
    Bytes.mapi
      (fun i c -> if mask.(i) then Char.chr (Char.code c lxor flips.(i)) else c)
      twin
  in
  (shape, current)

let page_gen len =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (return len)))

let print_writer twin (shape, current) =
  Printf.sprintf "%s %s" (shape_name shape)
    (String.init (Bytes.length twin) (fun i ->
         if Bytes.get twin i = Bytes.get current i then '.' else 'x'))

let prop_diff_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 300 >>= fun len ->
      page_gen len >>= fun twin ->
      writer_gen twin >>= fun w ->
      page_gen len >|= fun target -> (twin, w, target))
  in
  QCheck.Test.make ~name:"diff: flat encoding matches list-of-runs model"
    ~count:1000
    (QCheck.make ~print:(fun (twin, w, _) -> print_writer twin w) gen)
    (fun (twin, (_, current), target) ->
      let d = Diff.create ~page:0 ~twin ~current in
      let r = Ref_diff.create ~twin ~current in
      let got = Bytes.copy target and want = Bytes.copy target in
      Diff.apply d got;
      Ref_diff.apply r want;
      Diff.run_count d = List.length r
      && Diff.changed_bytes d = Ref_diff.changed_bytes r
      && Diff.size_bytes d = Ref_diff.size_bytes r
      && Bytes.equal got want)

let prop_diff_merge_is_sequential_apply =
  (* Writers over independent twins of one page, so their runs overlap
     arbitrarily; merging must equal applying them in order. *)
  let gen =
    QCheck.Gen.(
      int_range 1 300 >>= fun len ->
      list_size (int_range 2 5)
        (page_gen len >>= fun twin -> writer_gen twin >|= fun w -> (twin, w))
      >>= fun writers ->
      page_gen len >|= fun target -> (writers, target))
  in
  QCheck.Test.make ~name:"diff: apply (merge ds) = apply ds in order"
    ~count:500
    (QCheck.make
       ~print:(fun (ws, _) ->
         String.concat "\n"
           (List.map (fun (twin, w) -> print_writer twin w) ws))
       gen)
    (fun (writers, target) ->
      let ds =
        List.map
          (fun (twin, (_, current)) -> Diff.create ~page:3 ~twin ~current)
          writers
      in
      let merged = Diff.merge ds in
      let got = Bytes.copy target and want = Bytes.copy target in
      Diff.apply merged got;
      List.iter (fun d -> Diff.apply d want) ds;
      Diff.page merged = 3 && Bytes.equal got want)

let test_diff_create_allocation () =
  (* 1,000 scattered 1-byte runs on a 4 KiB page.  After a warm-up call
     has sized the per-domain scratch, encoding allocates the result and
     nothing per run.  Words are counted minor plus direct-major, since
     a buffer this size skips the minor heap; [Gc.counters] alone misses
     the minor words of the current minor cycle. *)
  let len = 4096 and nruns = 1000 in
  let twin = Bytes.make len '\000' in
  let current = Bytes.copy twin in
  for i = 0 to nruns - 1 do
    Bytes.set current ((4 * i) + (i mod 2)) '\001'
  done;
  ignore (Diff.create ~page:0 ~twin ~current);
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  let d = Diff.create ~page:0 ~twin ~current in
  let words = allocated () -. before in
  Alcotest.(check int) "runs" nruns (Diff.run_count d);
  (* The encoding: an 8-byte descriptor and 1 data byte per run, as a
     bytes block (header + padded payload), plus the 5-word record. *)
  let result_words = 1 + ((9 * nruns) / 8) + 1 + 5 in
  let slack = 64 in
  if words > float_of_int (result_words + slack) then
    Alcotest.failf "Diff.create allocated %.0f words, bound %d" words
      (result_words + slack)

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_twin_and_diff () =
  let p = Page.create ~size:64 in
  Alcotest.(check bool) "starts read-only" true (Page.state p = Page.Read_only);
  Page.make_twin p;
  Alcotest.(check bool) "read-write" true (Page.state p = Page.Read_write);
  Bytes.set (Page.data p) 7 'k';
  let d = Page.encode_diff p ~page_index:3 in
  Alcotest.(check bool) "back to read-only" true
    (Page.state p = Page.Read_only);
  Alcotest.(check int) "diff page" 3 (Diff.page d);
  Alcotest.(check int) "one changed byte" 1 (Diff.changed_bytes d)

let test_page_invalidate_requires_clean () =
  let p = Page.create ~size:64 in
  Page.make_twin p;
  (match Page.invalidate p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "invalidate of dirty page accepted");
  let (_ : Diff.t) = Page.encode_diff p ~page_index:0 in
  Page.invalidate p;
  Alcotest.(check bool) "invalid" true (Page.state p = Page.Invalid)

let test_page_install_and_validate () =
  let p = Page.create ~size:8 in
  Page.invalidate p;
  Page.install p (Bytes.of_string "abcdefgh");
  Alcotest.(check bool) "valid after install" true
    (Page.state p = Page.Read_only);
  Alcotest.(check string) "contents" "abcdefgh"
    (Bytes.to_string (Page.data p));
  Page.invalidate p;
  Page.validate p;
  Alcotest.(check bool) "valid again" true (Page.state p = Page.Read_only)

(* ------------------------------------------------------------------ *)
(* Page table *)

let test_page_table_fault_dispatch () =
  let pt = Page_table.create ~pages:4 ~page_size:64 () in
  let read_faults = ref [] and write_faults = ref [] in
  Page_table.set_read_fault pt (fun i ->
      read_faults := i :: !read_faults;
      Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i ->
      write_faults := i :: !write_faults;
      Page.make_twin (Page_table.page pt i));
  (* Fresh pages are readable without faulting. *)
  Page_table.ensure_readable pt 0;
  Alcotest.(check (list int)) "no read fault" [] !read_faults;
  (* Write takes a write fault once. *)
  Page_table.ensure_writable pt 0;
  Page_table.ensure_writable pt 0;
  Alcotest.(check (list int)) "one write fault" [ 0 ] !write_faults;
  (* Invalid page takes a read fault on read. *)
  Page.invalidate (Page_table.page pt 1);
  Page_table.ensure_readable pt 1;
  Alcotest.(check (list int)) "one read fault" [ 1 ] !read_faults;
  Alcotest.(check int) "stats reads" 1 (Page_table.read_faults pt);
  Alcotest.(check int) "stats writes" 1 (Page_table.write_faults pt)

let test_page_table_write_to_invalid_takes_both_faults () =
  let pt = Page_table.create ~pages:1 ~page_size:64 () in
  let log = ref [] in
  Page_table.set_read_fault pt (fun i ->
      log := `Read :: !log;
      Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i ->
      log := `Write :: !log;
      Page.make_twin (Page_table.page pt i));
  Page.invalidate (Page_table.page pt 0);
  Page_table.ensure_writable pt 0;
  Alcotest.(check bool) "read then write fault" true
    (List.rev !log = [ `Read; `Write ])

let test_page_table_broken_handler_detected () =
  let pt = Page_table.create ~pages:1 ~page_size:64 () in
  Page_table.set_read_fault pt (fun _ -> ());
  Page.invalidate (Page_table.page pt 0);
  match Page_table.ensure_readable pt 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "handler that fixes nothing must be detected"

(* ------------------------------------------------------------------ *)
(* Shm *)

let make_shm () =
  let region = small_region () in
  let noncoherent = Bytes.make (Region.noncoherent_bytes region) '\000' in
  let shm = Shm.create ~region ~noncoherent () in
  (* Identity fault handlers good enough for access tests. *)
  let pt = Shm.page_table shm in
  Page_table.set_read_fault pt (fun i -> Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i -> Page.make_twin (Page_table.page pt i));
  (region, shm)

let test_shm_private_rw () =
  let region, shm = make_shm () in
  let addr = Region.private_base region + 16 in
  Shm.write_i64 shm addr 12345;
  Alcotest.(check int) "i64 roundtrip" 12345 (Shm.read_i64 shm addr)

let test_shm_coherent_rw () =
  let region, shm = make_shm () in
  let addr = Region.coherent_addr region ~page:3 ~offset:8 in
  Shm.write_f64 shm addr 3.25;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.25 (Shm.read_f64 shm addr)

let test_shm_noncoherent_shared_between_views () =
  let region = small_region () in
  let noncoherent = Bytes.make (Region.noncoherent_bytes region) '\000' in
  let a = Shm.create ~region ~noncoherent () in
  let b = Shm.create ~region ~noncoherent () in
  let addr = Region.noncoherent_base region + 8 in
  Shm.write_i64 a addr 77;
  Alcotest.(check int) "visible in the other view" 77 (Shm.read_i64 b addr)

let test_shm_unaligned_rejected () =
  let region, shm = make_shm () in
  let addr = Region.private_base region + 3 in
  match Shm.read_i64 shm addr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned accepted"

let test_shm_bulk_cross_page_rejected () =
  let region, shm = make_shm () in
  let addr = Region.coherent_addr region ~page:0 ~offset:250 in
  match Shm.write_bytes shm addr (Bytes.make 16 'x') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-page bulk write accepted"

let test_shm_u8 () =
  let region, shm = make_shm () in
  let addr = Region.coherent_addr region ~page:1 ~offset:13 in
  Shm.write_u8 shm addr 200;
  Alcotest.(check int) "u8" 200 (Shm.read_u8 shm addr)

(* ------------------------------------------------------------------ *)
(* Alloc *)

let test_alloc_basic () =
  let a = Alloc.create ~base:1000 ~size:256 in
  let p1 = Alloc.alloc a 10 in
  let p2 = Alloc.alloc a 10 in
  Alcotest.(check bool) "disjoint" true (abs (p2 - p1) >= 10);
  Alcotest.(check int) "live" 20 (Alloc.live_bytes a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1001 ~size:256 in
  let p = Alloc.alloc a ~align:16 10 in
  Alcotest.(check int) "aligned" 0 (p mod 16)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:64 in
  let _ = Alloc.alloc a 64 in
  match Alloc.alloc a 1 with
  | exception Out_of_memory -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_alloc_free_reuse () =
  let a = Alloc.create ~base:0 ~size:64 in
  let p1 = Alloc.alloc a 32 in
  let _p2 = Alloc.alloc a 32 in
  Alloc.free a ~addr:p1 ~size:32;
  let p3 = Alloc.alloc a 32 in
  Alcotest.(check int) "reused" p1 p3

let test_alloc_coalesce () =
  let a = Alloc.create ~base:0 ~size:96 in
  let p1 = Alloc.alloc a 32 in
  let p2 = Alloc.alloc a 32 in
  let p3 = Alloc.alloc a 32 in
  Alloc.free a ~addr:p1 ~size:32;
  Alloc.free a ~addr:p2 ~size:32;
  Alloc.free a ~addr:p3 ~size:32;
  (* After coalescing we can allocate the whole arena again. *)
  let p = Alloc.alloc a 96 in
  Alcotest.(check int) "full arena" 0 p

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"alloc: live blocks never overlap" ~count:100
    QCheck.(small_list (int_range 1 64))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:65536 in
      let blocks = List.map (fun n -> (Alloc.alloc a n, n)) sizes in
      let sorted = List.sort compare blocks in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vm"
    [
      ( "region",
        [
          Alcotest.test_case "locate" `Quick test_region_locate;
          Alcotest.test_case "segv" `Quick test_region_segv;
          Alcotest.test_case "coherent addr roundtrip" `Quick
            test_region_coherent_addr;
          Alcotest.test_case "bad page size" `Quick test_region_bad_page_size;
        ] );
      ( "diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "roundtrip" `Quick test_diff_roundtrip_simple;
          Alcotest.test_case "idempotent" `Quick test_diff_idempotent;
          Alcotest.test_case "size accounting" `Quick
            test_diff_size_accounting;
          Alcotest.test_case "create allocates only its result" `Quick
            test_diff_create_allocation;
        ]
        @ qcheck
            [
              prop_diff_roundtrip;
              prop_diff_disjoint_writers_commute;
              prop_diff_matches_reference;
              prop_diff_merge_is_sequential_apply;
            ]
      );
      ( "page",
        [
          Alcotest.test_case "twin and diff" `Quick test_page_twin_and_diff;
          Alcotest.test_case "invalidate requires clean" `Quick
            test_page_invalidate_requires_clean;
          Alcotest.test_case "install and validate" `Quick
            test_page_install_and_validate;
        ] );
      ( "page-table",
        [
          Alcotest.test_case "fault dispatch" `Quick
            test_page_table_fault_dispatch;
          Alcotest.test_case "write to invalid: both faults" `Quick
            test_page_table_write_to_invalid_takes_both_faults;
          Alcotest.test_case "broken handler detected" `Quick
            test_page_table_broken_handler_detected;
        ] );
      ( "shm",
        [
          Alcotest.test_case "private rw" `Quick test_shm_private_rw;
          Alcotest.test_case "coherent rw" `Quick test_shm_coherent_rw;
          Alcotest.test_case "noncoherent shared" `Quick
            test_shm_noncoherent_shared_between_views;
          Alcotest.test_case "unaligned rejected" `Quick
            test_shm_unaligned_rejected;
          Alcotest.test_case "bulk cross-page rejected" `Quick
            test_shm_bulk_cross_page_rejected;
          Alcotest.test_case "u8" `Quick test_shm_u8;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "free and reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "coalesce" `Quick test_alloc_coalesce;
        ]
        @ qcheck [ prop_alloc_no_overlap ] );
    ]
