package perfbench

import java.lang.reflect.{Field, Modifier}

/** Bytes of heap an object graph occupies, by walking it with reflection
  * and HotSpot's 64-bit layout rules: 12-byte object headers, 16-byte array
  * headers, 8-byte alignment and 4-byte references under compressed oops.
  * Unlike a heap reading after GC, it is the same on every run, so a change
  * of index layout shows in it exactly.
  */
object HeapSize {

  private val refBytes = if (Bench.compressedOops) 4 else 8

  private def align(n: Long): Long = (n + 7) & ~7L

  private def primitiveBytes(c: Class[_]): Int = c match {
    case java.lang.Long.TYPE | java.lang.Double.TYPE   => 8
    case java.lang.Integer.TYPE | java.lang.Float.TYPE => 4
    case java.lang.Short.TYPE | java.lang.Character.TYPE => 2
    case _ => 1
  }

  private val fieldsOf = new java.util.HashMap[Class[_], Array[Field]]()

  private def instanceFields(c: Class[_]): Array[Field] = {
    var fs = fieldsOf.get(c)
    if (fs == null) {
      fs = Iterator.iterate[Class[_]](c)(_.getSuperclass).takeWhile(_ != null)
        .flatMap(_.getDeclaredFields).filterNot(f => Modifier.isStatic(f.getModifiers)).toArray
      fieldsOf.put(c, fs)
    }
    fs
  }

  /** Total bytes of `root` and everything reachable from it, except objects
    * for which `skip` holds (they are neither counted nor followed).
    */
  def deep(root: AnyRef, skip: AnyRef => Boolean): Long = {
    val seen  = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean]())
    val stack = new java.util.ArrayDeque[AnyRef]()
    var total = 0L
    stack.push(root)
    while (!stack.isEmpty) {
      val o = stack.pop()
      if (seen.add(o) && !skip(o)) {
        val c = o.getClass
        if (c.isArray) {
          val len = java.lang.reflect.Array.getLength(o)
          val ct  = c.getComponentType
          total += align(16L + len.toLong * (if (ct.isPrimitive) primitiveBytes(ct) else refBytes))
          if (!ct.isPrimitive) o.asInstanceOf[Array[AnyRef]].foreach(e => if (e != null) stack.push(e))
        } else {
          val fs = instanceFields(c)
          total += align(12L + fs.map(f => if (f.getType.isPrimitive) primitiveBytes(f.getType) else refBytes).sum)
          fs.foreach { f =>
            if (!f.getType.isPrimitive && f.trySetAccessible()) {
              val v = f.get(o)
              if (v != null) stack.push(v)
            }
          }
        }
      }
    }
    total
  }
}
