//! F6: the tool anatomy (paper Fig. 6) — project files and the
//! annotate/compare loop.
//!
//! "Mockingbird can parse C/C++ declarations, Java class files, CORBA
//! IDL, or project files (representing a previously saved session with
//! the tool). ... At any point, the programmer can save the current
//! state of the parsed and annotated declarations in a project file for
//! later use."

use mockingbird::{Mode, Session};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mockingbird-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn all_four_input_kinds_coexist_in_one_session() {
    let mut s = Session::new();
    s.load_c("typedef float point[2];").unwrap();
    s.load_java("public class Point { private float x; private float y; }")
        .unwrap();
    s.load_idl("struct IdlPoint { float x; float y; };")
        .unwrap();
    // Java class files are the fourth kind.
    let blob = mockingbird::lang_java::ClassSpec::new("BinPoint")
        .field("x", "F")
        .field("y", "F")
        .write();
    s.load_java_classes(&[blob]).unwrap();
    // All four spellings of a point are mutually equivalent.
    let mut pairs = 0;
    for (l, r) in [
        ("point", "Point"),
        ("point", "IdlPoint"),
        ("point", "BinPoint"),
        ("Point", "IdlPoint"),
        ("Point", "BinPoint"),
        ("IdlPoint", "BinPoint"),
    ] {
        assert!(s.compare(l, r, Mode::Equivalence).is_ok(), "{l} vs {r}");
        pairs += 1;
    }
    assert_eq!(pairs, 6);
}

#[test]
fn saved_session_resumes_where_it_left_off() {
    let path = scratch("resume.mbproj.json");
    {
        let mut s = Session::new();
        s.load_c("typedef float point[2];\nvoid draw(point *p, int n);")
            .unwrap();
        s.load_java("public class Canvas { private int width; private int height; }")
            .unwrap();
        // Half-finished annotation state.
        s.annotate("annotate draw.param(p) length=param(n)")
            .unwrap();
        s.save_project("wip", &path).unwrap();
    }
    let mut s = Session::load_project(&path).unwrap();
    // The annotation survived; the remaining work continues.
    let shown = s.display_mtype("draw").unwrap();
    assert!(
        shown.contains("Rec#L("),
        "length annotation survived: {shown}"
    );
    s.annotate("annotate Canvas.field(width) range=0..4096")
        .unwrap();
    let canvas = s.display_mtype("Canvas").unwrap();
    assert!(canvas.contains("Int{0..=4096}"), "{canvas}");
    std::fs::remove_file(path).ok();
}

#[test]
fn project_files_are_versioned_json() {
    let path = scratch("versioned.mbproj.json");
    let mut s = Session::new();
    s.load_c("typedef int handle;").unwrap();
    s.save_project("v", &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"version\": 1"));
    assert!(text.contains("\"handle\""));
    // Corrupt the version: load must fail cleanly.
    let bad = text.replace("\"version\": 1", "\"version\": 42");
    std::fs::write(&path, bad).unwrap();
    assert!(Session::load_project(&path).is_err());
    std::fs::remove_file(path).ok();
}

#[test]
fn iterative_annotate_compare_loop_converges() {
    // The Fig. 6 loop: compare, read the diagnostics, annotate, repeat.
    let mut s = Session::new();
    s.load_c("typedef float vec3[3];\nstruct CBody { vec3 pos; vec3 vel; unsigned int id; };")
        .unwrap();
    s.load_java(
        "public class JBody {
           private int id;
           private float[] pos;
           private float[] vel;
         }",
    )
    .unwrap();
    // Round 1: Java arrays are indefinite, C arrays fixed; id signs differ.
    let e1 = s.compare("JBody", "CBody", Mode::Equivalence).unwrap_err();
    assert!(e1.to_string().contains("types do not match"));
    // Round 2: fix the arrays.
    s.annotate(
        "annotate JBody.field(pos) length=static(3)
         annotate JBody.field(vel) length=static(3)",
    )
    .unwrap();
    let e2 = s.compare("JBody", "CBody", Mode::Equivalence).unwrap_err();
    assert!(e2.to_string().contains("types do not match"));
    // Round 3: reconcile the integer ranges (paper §3.1's annotation).
    s.annotate(
        "annotate JBody.field(id) range=0..2147483647
         annotate CBody.field(id) range=0..2147483647",
    )
    .unwrap();
    assert!(s.compare("JBody", "CBody", Mode::Equivalence).is_ok());
}

#[test]
fn dot_export_for_the_mtype_diagram_pane() {
    let mut s = Session::new();
    s.load_java("public class Node { private int v; private Node next; }")
        .unwrap();
    let dot = s.dot("Node").unwrap();
    assert!(dot.starts_with("digraph Node {"));
    assert!(dot.contains("Recursive"));
}
