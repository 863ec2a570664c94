//! Independent output check.
//!
//! A small XML scanner that shares no code with the sorter. One pass over a
//! document yields:
//!
//! - the number of elements;
//! - a tree hash that ignores the order of siblings, so a sorted output
//!   matches its input exactly when it is a sibling permutation of it;
//! - whether every element's children are in nondecreasing order of the
//!   key attribute, compared as bytes (the `--default @k` rule on the
//!   generated documents, whose keys are fixed-width digit strings);
//! - a digest of the exact bytes, for byte-identity checks.

/// What one scan of a document found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Elements in the document.
    pub elements: u64,
    /// Hash of the tree with sibling order factored out.
    pub tree_hash: u64,
    /// Hash of the exact bytes.
    pub digest: u64,
    /// The first sibling pair found out of key order, if any.
    pub unsorted: Option<String>,
}

impl Summary {
    /// Why `self`, a sort's output, is not a correct sort of `input`.
    pub fn mismatch(&self, input: &Summary) -> Option<String> {
        if self.elements != input.elements {
            return Some(format!(
                "output has {} elements, input has {}",
                self.elements, input.elements
            ));
        }
        if self.tree_hash != input.tree_hash {
            return Some("output is not a sibling permutation of the input".into());
        }
        self.unsorted.clone()
    }
}

/// One open element.
struct Frame {
    /// Byte range of the element name.
    name: (usize, usize),
    /// Hash of the start tag (name and attributes).
    head: u64,
    /// Hash of the element's own text.
    text: u64,
    /// Wrapping sum of the children's tree hashes: order-insensitive.
    children: u64,
    /// Byte range of the previous child's key.
    last_key: Option<(usize, usize)>,
}

/// Scan `xml`, ordering siblings by the attribute named `key_attr`.
pub fn scan(xml: &[u8], key_attr: &[u8]) -> Result<Summary, String> {
    let mut stack: Vec<Frame> = Vec::new();
    let mut root: Option<u64> = None;
    let mut elements = 0u64;
    let mut unsorted = None;
    let mut pos = 0;
    while pos < xml.len() {
        let Some(lt) = find(xml, pos, b'<') else {
            text_into(&mut stack, &xml[pos..])?;
            break;
        };
        text_into(&mut stack, &xml[pos..lt])?;
        let rest = &xml[lt..];
        if rest.starts_with(b"<?") {
            pos = skip_past(xml, lt, b"?>")?;
        } else if rest.starts_with(b"<!--") {
            pos = skip_past(xml, lt, b"-->")?;
        } else if rest.starts_with(b"<!") {
            pos = skip_past(xml, lt, b">")?;
        } else if rest.starts_with(b"</") {
            let gt = find(xml, lt, b'>').ok_or("unterminated end tag")?;
            let name = trim(xml, lt + 2, gt);
            let frame = stack.pop().ok_or("end tag without a start tag")?;
            if xml[name.0..name.1] != xml[frame.name.0..frame.name.1] {
                return Err(format!("mismatched end tag at byte {lt}"));
            }
            close(&mut stack, &mut root, frame)?;
            pos = gt + 1;
        } else {
            let gt = tag_end(xml, lt).ok_or("unterminated start tag")?;
            let empty = xml[gt - 1] == b'/';
            let body = trim(xml, lt + 1, if empty { gt - 1 } else { gt });
            let name_end =
                (body.0..body.1).find(|&i| xml[i].is_ascii_whitespace()).unwrap_or(body.1);
            let key = attr(xml, name_end, body.1, key_attr)
                .ok_or_else(|| format!("element at byte {lt} has no {:?} attribute", key_attr))?;
            if let Some(parent) = stack.last_mut() {
                if let Some(prev) = parent.last_key {
                    if unsorted.is_none() && xml[prev.0..prev.1] > xml[key.0..key.1] {
                        unsorted = Some(format!(
                            "key {:?} follows key {:?} among siblings (byte {lt})",
                            String::from_utf8_lossy(&xml[key.0..key.1]),
                            String::from_utf8_lossy(&xml[prev.0..prev.1]),
                        ));
                    }
                }
                parent.last_key = Some(key);
            } else if root.is_some() {
                return Err("more than one root element".into());
            }
            elements += 1;
            let frame = Frame {
                name: (body.0, name_end),
                head: hash(&xml[body.0..body.1]),
                text: 0,
                children: 0,
                last_key: None,
            };
            if empty {
                close(&mut stack, &mut root, frame)?;
            } else {
                stack.push(frame);
            }
            pos = gt + 1;
        }
    }
    if !stack.is_empty() {
        return Err(format!("{} element(s) left open at end of document", stack.len()));
    }
    let tree_hash = root.ok_or("document has no root element")?;
    Ok(Summary { elements, tree_hash, digest: hash(xml), unsorted })
}

/// Fold a finished element into its parent (or make it the root).
fn close(stack: &mut [Frame], root: &mut Option<u64>, frame: Frame) -> Result<(), String> {
    let node = mix(frame.head ^ mix(frame.text).rotate_left(17) ^ frame.children.rotate_left(31));
    match stack.last_mut() {
        Some(parent) => parent.children = parent.children.wrapping_add(mix(node)),
        None if root.is_none() => *root = Some(node),
        None => return Err("more than one root element".into()),
    }
    Ok(())
}

/// Charge non-whitespace text to the innermost open element.
fn text_into(stack: &mut [Frame], text: &[u8]) -> Result<(), String> {
    if text.iter().all(u8::is_ascii_whitespace) {
        return Ok(());
    }
    let top = stack.last_mut().ok_or("text outside the root element")?;
    top.text = mix(top.text ^ hash(text));
    Ok(())
}

/// Byte range of the value of attribute `name` within `xml[from..to]`.
fn attr(xml: &[u8], from: usize, to: usize, name: &[u8]) -> Option<(usize, usize)> {
    let mut i = from;
    while i < to {
        while i < to && xml[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < to && xml[i] != b'=' && !xml[i].is_ascii_whitespace() {
            i += 1;
        }
        let this = &xml[name_start..i];
        while i < to && xml[i] != b'"' && xml[i] != b'\'' {
            i += 1;
        }
        if i >= to {
            return None;
        }
        let quote = xml[i];
        let value_start = i + 1;
        let value_end = (value_start..to).find(|&j| xml[j] == quote)?;
        if this == name {
            return Some((value_start, value_end));
        }
        i = value_end + 1;
    }
    None
}

/// Index of the `>` closing the tag opened at `lt`, skipping quoted values.
fn tag_end(xml: &[u8], lt: usize) -> Option<usize> {
    let mut quote = None;
    for (i, &c) in xml.iter().enumerate().skip(lt + 1) {
        match (quote, c) {
            (None, b'>') => return Some(i),
            (None, b'"' | b'\'') => quote = Some(c),
            (Some(q), _) if c == q => quote = None,
            _ => {}
        }
    }
    None
}

fn find(xml: &[u8], from: usize, c: u8) -> Option<usize> {
    xml[from..].iter().position(|&x| x == c).map(|i| from + i)
}

fn skip_past(xml: &[u8], from: usize, end: &[u8]) -> Result<usize, String> {
    xml[from..]
        .windows(end.len())
        .position(|w| w == end)
        .map(|i| from + i + end.len())
        .ok_or_else(|| format!("unterminated markup at byte {from}"))
}

fn trim(xml: &[u8], mut from: usize, mut to: usize) -> (usize, usize) {
    while from < to && xml[from].is_ascii_whitespace() {
        from += 1;
    }
    while to > from && xml[to - 1].is_ascii_whitespace() {
        to -= 1;
    }
    (from, to)
}

/// A fast 64-bit hash of a byte string (8 bytes per step).
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sibling_permutation_keeps_the_tree_hash() {
        let a = scan(br#"<r k="1"><a k="2"/><b k="1"><c k="9"></c></b></r>"#, b"k").unwrap();
        let b = scan(br#"<r k="1"><b k="1"><c k="9"/></b><a k="2"></a></r>"#, b"k").unwrap();
        assert_eq!(a.tree_hash, b.tree_hash);
        assert_eq!(a.elements, 4);
        assert!(a.unsorted.is_some());
        assert_eq!(b.unsorted, None);
        assert_eq!(b.mismatch(&a), None);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn moving_a_child_between_parents_changes_the_tree_hash() {
        let a = scan(br#"<r k="0"><a k="1"><x k="5"/></a><b k="2"/></r>"#, b"k").unwrap();
        let b = scan(br#"<r k="0"><a k="1"/><b k="2"><x k="5"/></b></r>"#, b"k").unwrap();
        assert_ne!(a.tree_hash, b.tree_hash);
        assert!(b.mismatch(&a).is_some());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(scan(br#"<r k="0"><a k="1"></r>"#, b"k").is_err());
        assert!(scan(br#"<r k="0"><a/></r>"#, b"k").is_err());
        assert!(scan(br#"<r k="0"/><s k="1"/>"#, b"k").is_err());
    }
}
