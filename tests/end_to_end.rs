//! End-to-end pipelines: XML text in, fully sorted XML text out, across
//! devices, emission paths, and ordering criteria.

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sorted_dom, stage_input};
use nexsort_datagen::{collect_events, GenConfig, IbmGen};
use nexsort_extmem::{Disk, DiskBuilder};
use nexsort_xml::{
    events_to_dom, events_to_xml, parse_dom, Element, KeyRule, KeyValue, SortSpec, XNode,
};

/// Every element's children must be ordered by (key, doc-position) under
/// `spec`, down to `depth_limit`.
fn assert_sorted(e: &Element, spec: &SortSpec, depth_limit: Option<u32>, level: u32) {
    if depth_limit.is_some_and(|d| level > d) {
        return;
    }
    let keys: Vec<KeyValue> = e
        .children
        .iter()
        .map(|c| match c {
            XNode::Elem(el) => el.key_under(spec),
            XNode::Text(t) => spec.text_node_key(t),
        })
        .collect();
    for w in keys.windows(2) {
        assert!(
            w[0] <= w[1],
            "children of <{}> out of order: {} > {}",
            String::from_utf8_lossy(&e.name),
            w[0],
            w[1]
        );
    }
    for c in &e.children {
        if let XNode::Elem(el) = c {
            assert_sorted(el, spec, depth_limit, level + 1);
        }
    }
}

fn generated_xml(seed: u64, elems: u64) -> Vec<u8> {
    let mut g = IbmGen::new(5, 9, Some(elems), GenConfig { seed, ..Default::default() });
    let events = collect_events(&mut g).unwrap();
    events_to_xml(&events, false)
}

#[test]
fn xml_in_sorted_xml_out_is_legal_and_sorted() {
    let xml = generated_xml(1, 900);
    let original = parse_dom(&xml).unwrap();
    let spec = SortSpec::by_attribute("k");

    let disk = Disk::new_mem(1024);
    let input = stage_input(&disk, &xml).unwrap();
    let sorter = Nexsort::new(disk, NexsortOptions::default(), spec.clone()).unwrap();
    let sorted = sorter.sort_xml_extent(&input).unwrap();
    let out = parse_dom(&sorted.to_xml(false).unwrap()).unwrap();

    assert!(original.permutation_equivalent(&out), "output must be a legal permutation");
    assert_sorted(&out, &spec, None, 1);
    assert!(sorted.report.lemma_4_6_holds());
}

#[test]
fn file_backed_device_produces_identical_output() {
    let xml = generated_xml(2, 400);
    let spec = SortSpec::by_attribute("k");

    let mem_disk = Disk::new_mem(512);
    let input = stage_input(&mem_disk, &xml).unwrap();
    let mem_out = Nexsort::new(mem_disk, NexsortOptions::default(), spec.clone())
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap()
        .to_xml(false)
        .unwrap();

    let dir = std::env::temp_dir().join(format!("nexsort-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("device.bin");
    let file_disk = DiskBuilder::new(512).file(&path).build().unwrap().disk;
    let input = stage_input(&file_disk, &xml).unwrap();
    let file_out = Nexsort::new(file_disk, NexsortOptions::default(), spec)
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap()
        .to_xml(false)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(mem_out, file_out);
}

#[test]
fn external_xml_emission_matches_in_memory_emission() {
    let xml = generated_xml(3, 700);
    let spec = SortSpec::by_attribute("k");
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, &xml).unwrap();
    // Tiny threshold: lots of runs, so the output traversal works hard.
    let opts = NexsortOptions { threshold: Some(256), ..Default::default() };
    let sorted = Nexsort::new(disk, opts, spec).unwrap().sort_xml_extent(&input).unwrap();

    for pretty in [false, true] {
        let reference = nexsort_xml::events_to_xml(&sorted.to_events().unwrap(), pretty);
        let mut external = Vec::new();
        let n = sorted.write_xml(&mut external, pretty).unwrap();
        assert_eq!(n, sorted.report.n_records);
        assert_eq!(external, reference, "pretty={pretty}");
        assert_eq!(sorted.to_xml(pretty).unwrap(), reference, "pretty={pretty}");
    }
}

#[test]
fn complex_child_path_criterion_end_to_end() {
    let doc = br#"<staff>
      <person><info><last>Yang</last></info><id>2</id></person>
      <person><info><last>Aggarwal</last></info><id>3</id></person>
      <person><info><last>Silberstein</last></info><id>1</id></person>
    </staff>"#;
    let spec = SortSpec::uniform(KeyRule::doc_order())
        .with_rule("person", KeyRule::child_path(&["info", "last"]));
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, doc).unwrap();
    let sorted = Nexsort::new(disk, NexsortOptions::default(), spec)
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap();
    let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
    let a = xml.find("Aggarwal").unwrap();
    let s = xml.find("Silberstein").unwrap();
    let y = xml.find("Yang").unwrap();
    assert!(a < s && s < y, "{xml}");
}

#[test]
fn complex_criterion_with_external_subtree_sorts() {
    // Force the reversal pre-pass + external key-path sort by shrinking
    // memory and growing the subtree beyond the internal capacity.
    let mut doc = String::from("<staff>");
    for i in 0..400 {
        doc.push_str(&format!(
            "<person><info><last>name-{:04}</last></info><pad a=\"{}\"/></person>",
            (i * 131) % 1000,
            "x".repeat(40)
        ));
    }
    doc.push_str("</staff>");
    let spec = SortSpec::uniform(KeyRule::doc_order())
        .with_rule("person", KeyRule::child_path(&["info", "last"]));
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, doc.as_bytes()).unwrap();
    let sorted = Nexsort::new(disk, NexsortOptions::default(), spec)
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap();
    assert!(sorted.report.external_sorts > 0, "{}", sorted.report.summary());
    let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
    let names: Vec<&str> = xml.match_indices("name-").map(|(i, _)| &xml[i..i + 9]).collect();
    let mut sorted_names = names.clone();
    sorted_names.sort();
    assert_eq!(names, sorted_names);
}

#[test]
fn depth_limited_end_to_end_matches_oracle() {
    let xml = generated_xml(4, 600);
    let original = parse_dom(&xml).unwrap();
    let spec = SortSpec::by_attribute("k");
    for d in [1u32, 2, 3] {
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, &xml).unwrap();
        let opts = NexsortOptions { depth_limit: Some(d), ..Default::default() };
        let sorted =
            Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&original, &spec, Some(d));
        assert_eq!(got, expect, "depth limit {d}");
        assert_sorted(&got, &spec, Some(d), 1);
    }
}

#[test]
fn degeneration_end_to_end_on_generated_documents() {
    for seed in [5u64, 6, 7] {
        let xml = generated_xml(seed, 800);
        let original = parse_dom(&xml).unwrap();
        let spec = SortSpec::by_attribute("k");
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, &xml).unwrap();
        let opts = NexsortOptions { degeneration: true, mem_frames: 10, ..Default::default() };
        let sorted =
            Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
        let out = parse_dom(&sorted.to_xml(false).unwrap()).unwrap();
        assert!(original.permutation_equivalent(&out), "seed {seed}");
        assert_sorted(&out, &spec, None, 1);
    }
}
